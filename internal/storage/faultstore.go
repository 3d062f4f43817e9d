package storage

import (
	"errors"
	"sync"
)

// ErrInjected is returned by a FaultStore whose armed fault has fired. Once
// fired the store keeps failing — a crashed process does not come back —
// until the caller Disarms it (typically after snapshotting the underlying
// file as a crash image).
var ErrInjected = errors.New("storage: injected fault")

// FaultMode selects the failure a FaultStore injects when its op budget
// runs out.
type FaultMode int

const (
	// FailNone disables injection; the wrapper is transparent.
	FailNone FaultMode = iota
	// FailStop rejects the op before it reaches the inner store: nothing
	// is written. Models a crash just before the I/O.
	FailStop
	// TornWrite lets a prefix of the payload reach the inner store with the
	// tail zeroed, then fails. Models a write torn mid-sector by power loss.
	TornWrite
	// ShortRead truncates the payload returned by Read to half its length
	// (without an error). Models a read that silently came back short;
	// callers must detect it via their own framing or checksums.
	ShortRead
)

// FaultStore wraps a Store and injects a failure after a configurable
// number of mutating operations, for crash-consistency tests. Mutating ops
// (Alloc, Write, Free, SetMeta, Sync) count against the budget; Read counts
// only in ShortRead mode. A CrashPoint hook, when set, is called before
// every counted op with the op name and the number of ops remaining, so a
// test can snapshot files at the exact pre-crash instant.
type FaultStore struct {
	inner Store

	mu         sync.Mutex
	plan       FaultPlan
	fired      bool
	sticky     bool // a fired non-transient fault keeps failing every op
	ops        int64
	crashPoint func(op string, remaining int64)
}

// FaultPlan schedules one injected fault.
type FaultPlan struct {
	// Mode is the failure injected when the budget runs out.
	Mode FaultMode
	// Op restricts counting (and firing) to operations with this name —
	// "alloc", "write", "free", "setmeta", "sync", "read" — so a test can
	// aim at, say, exactly the second Free of a checkpoint. Empty counts
	// every operation.
	Op string
	// Budget is the number of counted operations allowed before the fault
	// fires (0 fires on the next counted op).
	Budget int64
	// Transient makes the fault fire once and disarm — a soft error such
	// as ENOSPC from a store that otherwise keeps working — instead of the
	// default fail-stop behavior where a crashed store rejects every
	// subsequent operation.
	Transient bool
}

// NewFaultStore wraps inner with fault injection disarmed.
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{inner: inner}
}

// Arm schedules mode to fire after n more counted operations (n = 0 fires
// on the next one). It also clears any previously fired state.
func (s *FaultStore) Arm(mode FaultMode, n int64) {
	s.ArmPlan(FaultPlan{Mode: mode, Budget: n})
}

// ArmPlan schedules an injected fault with full control over the op kind
// it targets and whether it is transient. It clears any previously fired
// state.
func (s *FaultStore) ArmPlan(p FaultPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = p
	s.fired = false
	s.sticky = false
}

// Disarm turns injection off and clears the fired state.
func (s *FaultStore) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = FaultPlan{}
	s.fired = false
	s.sticky = false
}

// SetCrashPoint registers fn to run before every counted operation. Pass
// nil to remove the hook.
func (s *FaultStore) SetCrashPoint(fn func(op string, remaining int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashPoint = fn
}

// Ops returns the number of counted operations observed so far.
func (s *FaultStore) Ops() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

// Fired reports whether the armed fault has gone off.
func (s *FaultStore) Fired() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// step counts one operation and decides whether the fault fires on it.
// It returns the active mode when this op must fail (or tear), FailNone
// otherwise.
func (s *FaultStore) step(op string) FaultMode {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if s.sticky {
		return FailStop // crashed processes stay crashed
	}
	if s.crashPoint != nil {
		s.crashPoint(op, s.plan.Budget)
	}
	if s.plan.Mode == FailNone || (s.plan.Op != "" && s.plan.Op != op) {
		return FailNone
	}
	if s.plan.Budget > 0 {
		s.plan.Budget--
		return FailNone
	}
	s.fired = true
	mode := s.plan.Mode
	if s.plan.Transient {
		s.plan.Mode = FailNone // one soft error, then back to normal
	} else {
		s.sticky = true
	}
	return mode
}

// BlockSize implements Store.
func (s *FaultStore) BlockSize() int { return s.inner.BlockSize() }

// Alloc implements Store.
func (s *FaultStore) Alloc(blocks int) (PageID, error) {
	if s.step("alloc") != FailNone {
		return NilPage, ErrInjected
	}
	return s.inner.Alloc(blocks)
}

// Write implements Store. In TornWrite mode the firing op writes a prefix
// of the payload with the tail zeroed before failing.
func (s *FaultStore) Write(id PageID, blocks int, data []byte) error {
	switch s.step("write") {
	case FailNone:
		return s.inner.Write(id, blocks, data)
	case TornWrite:
		torn := make([]byte, len(data))
		copy(torn, data[:len(data)/2])
		if err := s.inner.Write(id, blocks, torn); err != nil {
			return err
		}
		return ErrInjected
	default:
		return ErrInjected
	}
}

// Read implements Store. Reads are counted (and may fail) only in
// ShortRead mode: crash tests measure their budgets in mutating ops.
func (s *FaultStore) Read(id PageID) ([]byte, int, error) {
	s.mu.Lock()
	shortMode := s.plan.Mode == ShortRead && !s.fired
	crashed := s.sticky
	s.mu.Unlock()
	if crashed {
		return nil, 0, ErrInjected
	}
	if !shortMode {
		return s.inner.Read(id)
	}
	if s.step("read") != FailNone {
		data, blocks, err := s.inner.Read(id)
		if err != nil {
			return nil, 0, err
		}
		return data[:len(data)/2], blocks, nil
	}
	return s.inner.Read(id)
}

// Free implements Store.
func (s *FaultStore) Free(id PageID, blocks int) error {
	if s.step("free") != FailNone {
		return ErrInjected
	}
	return s.inner.Free(id, blocks)
}

// SetMeta implements Store.
func (s *FaultStore) SetMeta(data []byte) error {
	switch s.step("setmeta") {
	case FailNone:
		return s.inner.SetMeta(data)
	case TornWrite:
		torn := make([]byte, len(data))
		copy(torn, data[:len(data)/2])
		if err := s.inner.SetMeta(torn); err != nil {
			return err
		}
		return ErrInjected
	default:
		return ErrInjected
	}
}

// GetMeta implements Store.
func (s *FaultStore) GetMeta() ([]byte, error) {
	s.mu.Lock()
	crashed := s.sticky
	s.mu.Unlock()
	if crashed {
		return nil, ErrInjected
	}
	return s.inner.GetMeta()
}

// Stats implements Store.
func (s *FaultStore) Stats() Stats { return s.inner.Stats() }

// ResetStats implements Store.
func (s *FaultStore) ResetStats() { s.inner.ResetStats() }

// Sync implements Store.
func (s *FaultStore) Sync() error {
	if s.step("sync") != FailNone {
		return ErrInjected
	}
	return s.inner.Sync()
}

// Close implements Store. Close always reaches the inner store so tests
// can release file handles even after a fault fired.
func (s *FaultStore) Close() error { return s.inner.Close() }
