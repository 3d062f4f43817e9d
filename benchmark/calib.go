package main

import (
	"sort"
	"time"
)

// The sandbox gives the benchmark two cores of a shared host, and what the
// neighbours do moves the speed of the same code on the same data by a fifth
// and more for seconds to minutes at a time — often longer than a run, so no
// statistic over a run's own clock readings removes it. The harness
// therefore measures the machine beside the engine: every chunkTime of
// engine work it times a burst of fixed work that touches no engine code,
// and reports a round's CPU-bound times as they would read on a machine
// that runs the burst in exactly refBurst.
//
// The burst is half arithmetic and half independent updates of a table that
// fits the second-level cache, which it loads before the clock starts: what
// the engine left in the caches must not reach the reading, or an engine
// that touches less memory would speed the burst up and look slower for it.
// A burst that also chased pointers through memory followed the engine more
// closely in calm minutes and overshot in noisy ones; this one moves less
// than the engine does, so it takes out part of the host's drift and never
// adds to it.
const (
	refBurst  = 300 * time.Microsecond
	chunkTime = 8 * time.Millisecond // engine work between two bursts

	calALUIters   = 62_000
	calTableIters = 56_000
	calTableLen   = 1 << 15 // uint64: 256 KiB
)

// calTable is static, so it is not part of HeapAlloc (heap_mb) and the
// collector never scans it.
var (
	calTable [calTableLen]uint64
	calSink  uint64
)

// burst does the fixed work once and returns how long it took.
func burst() time.Duration {
	x := uint64(88172645463325252)
	for i := 0; i < calTableLen; i += 8 { // one load per cache line
		x += calTable[i]
	}
	start := time.Now()
	for i := 0; i < calALUIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	for i := 0; i < calTableIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		calTable[x%calTableLen] += x
	}
	d := time.Since(start)
	calSink += x
	return d
}

// speedometer collects the bursts of one round.
type speedometer struct {
	last   time.Time // end of the latest burst
	bursts []time.Duration
}

// tick takes a burst when the latest one is chunkTime old. The operation
// loops call it between operations.
func (s *speedometer) tick(now time.Time) {
	if now.Sub(s.last) < chunkTime {
		return
	}
	s.bursts = append(s.bursts, burst())
	s.last = time.Now()
}

// factor is refBurst over the round's median burst: below 1 on a machine
// slower than the reference. The median leaves out the bursts the host
// interrupted; interruptions of the engine's own operations are what the
// repeats of a round are for (see endToEndMetrics).
func (s *speedometer) factor() float64 {
	if len(s.bursts) == 0 {
		return 1
	}
	b := append([]time.Duration(nil), s.bursts...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return float64(refBurst) / float64(b[len(b)/2])
}

func scaleAll(lat []time.Duration, f float64) {
	for i, d := range lat {
		lat[i] = time.Duration(float64(d) * f)
	}
}
