package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/tpcd"
)

// Query classes: the paper's §5.2 generator at three selectivities plus
// the OLAP roll-up, interleaved round-robin in every query stream.
const (
	classSel01 = iota
	classSel05
	classSel25
	classRollup
	numClasses
)

var classNames = [numClasses]string{"sel01", "sel05", "sel25", "rollup"}

// checksPerClass sizes the oracle sample: 4 × 50 = 200 queries per
// workload whatever the scale.
const checksPerClass = 50

type query struct {
	class int
	mds   mds.MDS
}

type writeOp struct {
	del bool
	rec cube.Record
}

// sizes are a workload's operation counts at scale 1; every count is
// multiplied by the one -scale factor.
type sizes struct {
	preload      int  // records bulk-loaded during set-up
	writes       int  // timed Insert/Delete calls
	expire       bool // cold-read: the writes delete preloaded records, evenly spread
	deleteEvery  int  // every n-th write is a Delete (0: inserts only)
	deleteLag    int  // a Delete removes the record inserted this many ops earlier
	perClass     int  // queries per class, all distinct
	slices       int  // WAL workloads: the writes and the queries alternate in this many slices
	ckptDirtyKiB int  // CheckpointDirtyBytes of the WAL workloads, KiB
	// deviceBound: a write waits for the commit window and the log device,
	// not for the CPU, so its times are reported as measured.
	deviceBound bool
}

var workloadSizes = map[string]sizes{
	"paper-mem":     {writes: 120000, perClass: 6000},
	"cold-read":     {preload: 300000, writes: 24000, expire: true, perClass: 6000},
	"durable-mixed": {preload: 50000, writes: 3000, deleteEvery: 10, deleteLag: 500, perClass: 6000, slices: 8, ckptDirtyKiB: 4096, deviceBound: true},
	"replicated":    {writes: 5000, perClass: 6000, slices: 8, ckptDirtyKiB: 4096, deviceBound: true},
}

var workloadNames = []string{"paper-mem", "cold-read", "durable-mixed", "replicated"}

func scaled(n int, scale float64) int {
	if n == 0 {
		return 0
	}
	return max(1, int(math.Round(float64(n)*scale)))
}

func (s sizes) scaled(scale float64) sizes {
	return sizes{
		preload:      scaled(s.preload, scale),
		writes:       scaled(s.writes, scale),
		expire:       s.expire,
		deleteEvery:  s.deleteEvery,
		deleteLag:    scaled(s.deleteLag, scale),
		perClass:     scaled(s.perClass, scale),
		slices:       max(1, s.slices),
		ckptDirtyKiB: max(64, scaled(s.ckptDirtyKiB, scale)),
		deviceBound:  s.deviceBound,
	}
}

// input is everything a workload feeds the engine, generated from the
// seed alone: the engine never sees the seed.
type input struct {
	gen     *tpcd.Gen
	preload []cube.Record
	writes  []writeOp
	queries []query // class = index % numClasses
	checks  []query // oracle sample, never timed
	final   []cube.Record
	digest  string
}

func (in *input) inserts() int {
	n := 0
	for _, w := range in.writes {
		if !w.del {
			n++
		}
	}
	return n
}

func generate(workload string, seed int64, scale float64) (*input, error) {
	sz := workloadSizes[workload].scaled(scale)
	dels := 0
	switch {
	case sz.expire:
		dels = sz.writes
	case sz.deleteEvery > 0:
		dels = sz.writes / sz.deleteEvery
	}
	g, err := tpcd.New(seed, tpcd.ScaleFor(sz.preload+sz.writes-dels))
	if err != nil {
		return nil, err
	}
	in := &input{gen: g, preload: g.Records(sz.preload)}

	in.writes = make([]writeOp, sz.writes)
	expired := make(map[int]bool) // preload indexes an expiry removes
	deleted := make(map[int]bool) // write indexes a later Delete removes
	for i := range in.writes {
		if sz.expire {
			j := i * len(in.preload) / sz.writes
			expired[j] = true
			in.writes[i] = writeOp{del: true, rec: in.preload[j]}
			continue
		}
		if sz.deleteEvery > 0 && i%sz.deleteEvery == sz.deleteEvery-1 {
			j := i - sz.deleteLag
			if j >= 0 && in.writes[j].del {
				j--
			}
			if j >= 0 && !deleted[j] {
				deleted[j] = true
				in.writes[i] = writeOp{del: true, rec: in.writes[j].rec}
				continue
			}
		}
		in.writes[i] = writeOp{rec: g.Record()}
	}
	for j, rec := range in.preload {
		if !expired[j] {
			in.final = append(in.final, rec)
		}
	}
	for i, w := range in.writes {
		if !w.del && !deleted[i] {
			in.final = append(in.final, w.rec)
		}
	}

	qg := g.Queries(seed + 77)
	draw := func(perClass int) ([]query, error) {
		qs := make([]query, 0, perClass*numClasses)
		for i := 0; i < perClass*numClasses; i++ {
			var q tpcd.Query
			switch i % numClasses {
			case classSel01:
				q, err = qg.Query(0.01)
			case classSel05:
				q, err = qg.Query(0.05)
			case classSel25:
				q, err = qg.Query(0.25)
			default:
				q, err = qg.Rollup(2)
			}
			if err != nil {
				return nil, err
			}
			qs = append(qs, query{class: i % numClasses, mds: q.MDS})
		}
		return qs, nil
	}
	if in.queries, err = draw(sz.perClass); err != nil {
		return nil, err
	}
	if in.checks, err = draw(checksPerClass); err != nil {
		return nil, err
	}
	in.digest = digest(workload, in)
	return in, nil
}

// digest hashes the whole op stream — record coordinates and measures,
// delete targets, query MDSs — so a change in internal/tpcd (outside the
// benchmark's paths) cannot silently change what is measured.
func digest(workload string, in *input) string {
	h := sha256.New()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	rec := func(r cube.Record) {
		for _, c := range r.Coords {
			u64(uint64(c))
		}
		for _, m := range r.Measures {
			u64(math.Float64bits(m))
		}
	}
	h.Write([]byte(workload))
	u64(uint64(len(in.preload)))
	for _, r := range in.preload {
		rec(r)
	}
	u64(uint64(len(in.writes)))
	for _, w := range in.writes {
		if w.del {
			u64(1)
		} else {
			u64(0)
		}
		rec(w.rec)
	}
	for _, qs := range [][]query{in.queries, in.checks} {
		u64(uint64(len(qs)))
		for _, q := range qs {
			for _, d := range q.mds {
				u64(uint64(d.Level))
				u64(uint64(len(d.IDs)))
				for _, id := range d.IDs {
					u64(uint64(id))
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func digestKey(workload string, scale float64) string {
	return fmt.Sprintf("%s@%g", workload, scale)
}
