package repl

import (
	"os"
	"path/filepath"
	"time"
)

// The lease is the primary's liveness beacon for filesystem-transport
// followers. Its contract is the file system's, not a Go API: the lease is
// any file whose modification time the primary's supervisor refreshes on a
// timer shorter than the followers' TTL (`touch <prefix>.lease` every
// second against DefaultLeaseTTL), and removes to signal a clean shutdown.
// A follower considers the primary dead when the file goes stale past the
// TTL or is missing — so a lease path that nothing refreshes reads as a
// dead primary from the first check, which is why no transport invents one
// (DirSource.Lease empty = no failure detector).
//
// The lease is advisory, not a lock: it cannot fence a primary that is
// alive but wedged. Fencing epochs (see ErrFenced) are what actually kill
// a deposed primary's timeline; the lease only decides when a follower's
// promotion timer arms.

// LeaseFresh reports whether the lease file at path exists and was
// refreshed within ttl — the follower-side liveness check.
//
// "Now" is the filesystem's notion of now, not the local clock: the
// check stats a freshly created probe file next to the lease and
// compares the two modification times. On a shared filesystem this
// makes the comparison immune to wall-clock skew between primary and
// follower hosts — both timestamps come from the same stamping
// authority. Residual skew remains on network filesystems whose clients
// stamp mtimes locally (e.g. NFS without server-side timestamps); keep
// TTLs comfortably above the mount's documented clock tolerance.
func LeaseFresh(path string, ttl time.Duration) bool {
	st, err := os.Stat(path)
	if err != nil {
		return false
	}
	now := time.Now()
	if probe, err := os.CreateTemp(filepath.Dir(path), ".lease-probe-*"); err == nil {
		name := probe.Name()
		probe.Close()
		if pst, err := os.Stat(name); err == nil {
			now = pst.ModTime()
		}
		os.Remove(name)
	}
	return now.Sub(st.ModTime()) <= ttl
}
