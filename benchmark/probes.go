package main

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/dcindex/dctree/internal/bitmap"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/hierarchy"
	"github.com/dcindex/dctree/internal/mds"
	"github.com/dcindex/dctree/internal/storage"
)

// Layer probes time a layer's exported functions directly, on operands
// captured from the workload that just ran: its records, its query MDSs,
// covers of 48 path-adjacent records as stand-ins for leaf MDSs, and the
// extents its store wrote. They run after everything that is measured.

const (
	probeLeaf   = 48   // records per stand-in leaf MDS (the default LeafCapacity)
	probeCovers = 256  // stand-in leaf MDSs built
	probeCalls  = 4096 // calls per cheap probe
	probeSyncs  = 32   // fsyncs timed
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeCalls reports the mean time of n calls of fn, in nanoseconds.
func timeCalls(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

func (x *roundRun) probes(ts *tracedStore) {
	if !x.layers {
		return
	}
	L := x.r.layer
	schema := x.in.gen.Schema()
	space := schema.Space()
	recs := x.in.final
	if len(recs) == 0 {
		return
	}

	// Path order: records whose coordinates share ancestors sit together,
	// as they do in a leaf.
	sorted := append([]cube.Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool {
		for d := range sorted[i].Coords {
			if a, b := sorted[i].Coords[d], sorted[j].Coords[d]; a != b {
				return a < b
			}
		}
		return false
	})
	var groups [][]mds.MDS
	for lo := 0; lo+probeLeaf <= len(sorted) && len(groups) < probeCovers; lo += probeLeaf {
		g := make([]mds.MDS, probeLeaf)
		for i := range g {
			g[i] = mds.FromLeaves(sorted[lo+i].Coords)
		}
		groups = append(groups, g)
	}
	if len(groups) == 0 {
		g := make([]mds.MDS, len(sorted))
		for i := range g {
			g[i] = mds.FromLeaves(sorted[i].Coords)
		}
		groups = append(groups, g)
	}
	covers := make([]mds.MDS, len(groups))
	L["mds.cover_ns"] = timeCalls(len(groups), func(i int) {
		c, err := mds.Cover(space, groups[i]...)
		if err != nil {
			x.r.fail("probe mds.Cover: %v", err)
		}
		covers[i] = c
	})
	cover := func(i int) mds.MDS { return covers[i%len(covers)] }
	qmds := func(i int) mds.MDS { return x.in.queries[i%len(x.in.queries)].mds }

	// One level up in every dimension: the adaptation a split performs.
	up := make([][]int, len(covers))
	for i, c := range covers {
		up[i] = make([]int, len(c))
		for d := range c {
			up[i][d] = min(c[d].Level+1, space[d].TopLevel())
		}
	}
	L["mds.adapt_to_levels_ns"] = timeCalls(probeCalls, func(i int) {
		m, _ := mds.AdaptToLevels(space, cover(i), up[i%len(up)])
		sink += len(m)
	})
	L["mds.overlap_ns"] = timeCalls(probeCalls, func(i int) {
		v, _ := mds.Overlap(space, cover(i), cover(i+1))
		sink += int(v)
	})
	L["mds.extension_ns"] = timeCalls(probeCalls, func(i int) {
		v, _ := mds.Extension(space, cover(i), cover(i+1))
		sink += int(v)
	})
	L["mds.contains_ns"] = timeCalls(probeCalls, func(i int) {
		if ok, _ := mds.Contains(space, qmds(i), cover(i)); ok {
			sink++
		}
	})
	encoded := make([][]byte, len(covers))
	for i, c := range covers {
		encoded[i] = c.AppendEncode(nil)
	}
	L["mds.decode_ns"] = timeCalls(probeCalls, func(i int) {
		m, _, _ := mds.Decode(encoded[i%len(encoded)])
		sink += len(m)
	})

	rec := func(i int) cube.Record { return recs[i%len(recs)] }
	L["hierarchy.parent_ns"] = timeCalls(probeCalls, func(i int) {
		d := i % len(space)
		p, _ := space[d].Parent(rec(i).Coords[d])
		sink += int(p)
	})
	L["hierarchy.ancestor_at_ns"] = timeCalls(probeCalls, func(i int) {
		d := i % len(space)
		p, _ := space[d].AncestorAt(rec(i).Coords[d], space[d].TopLevel())
		sink += int(p)
	})
	// Registration is timed on a scratch hierarchy shaped like Customer, so
	// the workload's own dictionaries stay as the op stream left them.
	scratch := hierarchy.MustNew("Probe", "Customer", "MktSegment", "Nation", "Region")
	names := make([][4]string, probeCalls)
	for i := range names {
		names[i] = [4]string{"R" + strconv.Itoa(i%5), "N" + strconv.Itoa(i%25), "S" + strconv.Itoa(i%5), "C" + strconv.Itoa(i)}
	}
	L["hierarchy.register_ns"] = timeCalls(probeCalls, func(i int) {
		id, _ := scratch.Register(names[i][0], names[i][1], names[i][2], names[i][3])
		sink += int(id)
	})
	// Decoding the largest dictionary is what every open and recovery pays.
	blob := space[0].AppendEncode(nil)
	L["hierarchy.decode_ms"] = timeCalls(4, func(int) {
		_, n, _ := hierarchy.DecodeHierarchy(blob)
		sink += n
	}) / 1e6

	L["cube.validate_record_ns"] = timeCalls(probeCalls, func(i int) {
		if schema.ValidateRecord(rec(i)) == nil {
			sink++
		}
	})
	var acc cube.Agg
	L["cube.agg_merge_ns"] = timeCalls(probeCalls, func(i int) {
		acc.Merge(cube.AggOf(rec(i).Measures[0]))
	})
	sink += int(acc.Count)
	leaves, _ := space[0].CountAt(0)
	mask := bitmap.NewDense(leaves)
	L["bitmap.dense_set_get_ns"] = timeCalls(probeCalls, func(i int) {
		c := rec(i).Coords[0].Code()
		mask.Set(c)
		if mask.Get(rec(i + 1).Coords[0].Code()) {
			sink++
		}
	})

	x.storageProbes(ts)
}

// storageProbes times extent access on the real store under the traced
// wrapper, over the extents the workload wrote, and the WAL's append and
// flush on the filesystem of -dir.
func (x *roundRun) storageProbes(ts *tracedStore) {
	L := x.r.layer
	var live []storage.PageID
	for _, id := range ts.pages {
		if _, _, err := ts.inner.Read(id); err == nil { // freed since: skip
			live = append(live, id)
		}
	}
	if len(live) > 0 {
		L["storage.read_extent_ns"] = timeCalls(probeCalls, func(i int) {
			b, _, _ := ts.inner.Read(live[i%len(live)])
			sink += len(b)
		})
		L["storage.view_extent_ns"] = timeCalls(probeCalls, func(i int) {
			b, _, _ := ts.viewer.ViewExtent(live[i%len(live)])
			sink += len(b)
		})
	}

	dir := filepath.Join(x.dir, "probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		x.r.fail("probe wal: %v", err)
		return
	}
	w, err := storage.OpenWAL(filepath.Join(dir, "wal"), walOptions)
	if err != nil {
		x.r.fail("probe wal: %v", err)
		return
	}
	defer w.Close()
	payload := make([]byte, 48) // the size of one logged mutation
	L["storage.wal_append_ns"] = timeCalls(probeCalls, func(int) {
		if _, err := w.Append(payload); err != nil {
			x.r.fail("probe wal append: %v", err)
		}
	})
	if _, err := w.Sync(); err != nil {
		x.r.fail("probe wal sync: %v", err)
	}
	syncs := make([]time.Duration, probeSyncs)
	for i := range syncs {
		if _, err := w.Append(payload); err != nil {
			x.r.fail("probe wal append: %v", err)
		}
		start := time.Now()
		if _, err := w.Sync(); err != nil {
			x.r.fail("probe wal sync: %v", err)
		}
		syncs[i] = time.Since(start)
	}
	L["storage.wal_fsync_us"] = micros(percentile(syncs, 0.5))
}
