//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so tests that hold a pooled path to zero allocations skip.
const raceEnabled = true
