package repl

import (
	"github.com/dcindex/dctree/internal/core"
)

// Fencing epochs close the split-brain hole the lease alone cannot: the
// lease is advisory (a partitioned-but-alive primary keeps heartbeating
// its own disk), so promotion must carry authority of its own. Every
// promotion bumps a durable epoch — stamped into the meta blob (v7) and
// into every WAL segment header the new primary writes (v2 headers) — and
// every shipped record carries the epoch of the segment that holds it.
//
// The rules, each enforced where the bytes flow:
//
//   - A follower's epoch advances only from segments it has actually
//     mirrored (plus its replica checkpoint at restart), never from a
//     listing alone. By the time it knows epoch E+1 exists, everything
//     below the promotion point is already in its mirror — so legitimate
//     old-epoch history below the frontier can never false-fence.
//   - A source whose newest segment is below the follower's epoch is a
//     deposed primary: the shipping pass stops with ErrFenced before
//     mirroring a byte (shipper.runOnce).
//   - A segment offering NEW frames beyond the mirror frontier from an
//     epoch below the follower's is likewise refused (the deposed primary
//     kept appending to its old timeline).
//   - core.Tree.ApplyReplicated independently rejects stale-epoch records
//     after its idempotence check, so even a hand-driven apply path
//     cannot fold a deposed primary's writes into a replica.
//   - A primary that receives a follower acknowledgment from a HIGHER
//     epoch has been deposed itself: its commit path is poisoned with
//     ErrFenced exactly like an fsync failure
//     (core.Tree.ObserveFollowerAck), so no further write is ever
//     acknowledged from the old timeline.
//
// Epoch 0 is the pre-fencing state: trees and logs written before this
// protocol carry it, and nothing fences until the first promotion mints
// epoch 2 (fresh durable trees start at 1).
//
// ErrFenced is core.ErrFenced re-exported so transport code and callers
// of this package can match it without importing core.
var ErrFenced = core.ErrFenced
