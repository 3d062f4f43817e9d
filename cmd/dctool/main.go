// Command dctool builds, queries and checks persistent DC-tree indexes
// from CSV data.
//
// Subcommands:
//
//	dctool build -schema schema.json -csv data.csv -index out.dc
//	dctool build -tpcd 50000 [-seed 1] -index tpcd.dc
//	dctool query -index out.dc -where 'Customer.Region=EUROPE|ASIA' \
//	             -where 'Time.Year=1996' -op SUM -measure ExtendedPrice
//	dctool stats -index out.dc
//	dctool fsck  -index out.dc
//	dctool verify -index out.dc
//	dctool recover -index out.dc -wal out
//	dctool versions -index out.dc -wal out [-prune id|all]
//	dctool replica -dir standby/ -from primary/out [-lease primary/out.lease -auto-promote]
//	dctool promote -dir standby/
//	dctool ship -wal primary/out -addr :7421
//
// `replica` runs a warm standby: it tails a primary's write-ahead log —
// over a shared filesystem (-from is the primary's WAL path prefix) or
// over HTTP (-from is the base URL of `dctool ship`) — keeping a local
// mirror of the log and a continuously applied read-only index. `promote`
// turns a replica directory into a read-write index after the primary is
// gone; `replica -auto-promote` does the same automatically once the
// source has been unreachable for -promote-after (on the filesystem
// transport that needs -lease, a file the primary's supervisor touches:
// without one there is no failure detector). `ship` is the serving
// sidecar for the HTTP transport. See REPLICATION.md for the protocol and
// OPERATIONS.md for runbooks.
//
// `recover` reopens a WAL-backed index after a crash: it replays the log
// tail past the last checkpoint, verifies the result, and (unless
// -checkpoint=false) writes a fresh checkpoint that truncates the log.
//
// `versions` lists MVCC snapshot versions: the persisted latest-version
// stamp always, plus every version reconstructed from the WAL tail when
// -wal is given. -prune releases a version (or all of them), returning its
// pinned extents to the freelist, and checkpoints.
//
// `fsck` checks the logical tree invariants; `verify` checks the physical
// layer instead: it reads every extent the index references and verifies
// its stored checksum, reporting each damaged extent and exiting nonzero
// on any damage.
//
// `query` and `stats` accept -metrics to append the tree's observability
// snapshot in Prometheus text format.
//
// The schema file declares dimensions (leaf level first) and measures:
//
//	{
//	  "dimensions": [
//	    {"name": "Customer", "levels": ["Customer", "Nation", "Region"]},
//	    {"name": "Time",     "levels": ["Month", "Year"]}
//	  ],
//	  "measures": ["ExtendedPrice"]
//	}
//
// The CSV must carry one column per dimension level named "Dim.Level"
// plus one column per measure; rows become data records. A measure is
// stored as exact units of its decimal scale, which build reads off its
// column: the most fractional digits its values need (12.5 and 3.25 make
// scale 2; 3703.6800000000003, a float printed with rounding noise, needs
// 2).
//
// `build -tpcd N` skips both files and indexes N records of the paper's
// TPC-D-like evaluation cube (Customer, Supplier, Part, Time; measure
// ExtendedPrice), deterministic for a given -seed, with dimension tables
// scaled to N the way TPC-D's scale factor does. `export` writes any index
// back out as CSV.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	dctree "github.com/dcindex/dctree"
	"github.com/dcindex/dctree/internal/cube"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/tpcd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:])
	case "query":
		err = runQuery(os.Args[2:])
	case "stats":
		err = runStats(os.Args[2:])
	case "fsck":
		err = runFsck(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "recover":
		err = runRecover(os.Args[2:])
	case "versions":
		err = runVersions(os.Args[2:])
	case "replica":
		err = runReplica(os.Args[2:])
	case "promote":
		err = runPromote(os.Args[2:])
	case "ship":
		err = runShip(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dctool %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dctool {build|query|stats|fsck|verify|export|recover|versions|replica|promote|ship} [flags]")
	os.Exit(2)
}

// schemaSpec is the JSON schema declaration.
type schemaSpec struct {
	Dimensions []struct {
		Name   string   `json:"name"`
		Levels []string `json:"levels"` // leaf level first
	} `json:"dimensions"`
	Measures []string `json:"measures"`
}

func loadSchema(path string) (*dctree.Schema, *schemaSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec schemaSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	var dims []*dctree.Hierarchy
	for _, d := range spec.Dimensions {
		h, err := dctree.NewHierarchy(d.Name, d.Levels...)
		if err != nil {
			return nil, nil, err
		}
		dims = append(dims, h)
	}
	schema, err := dctree.NewSchema(dims, spec.Measures...)
	if err != nil {
		return nil, nil, err
	}
	return schema, &spec, nil
}

func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema JSON file")
	csvPath := fs.String("csv", "", "input CSV file")
	tpcdN := fs.Int("tpcd", 0, "instead of -schema/-csv, generate this many records of the paper's TPC-D-like cube")
	seed := fs.Int64("seed", 1, "generator seed for -tpcd")
	indexPath := fs.String("index", "index.dc", "output index file")
	fs.Parse(args)

	// load inserts the input into the tree and returns the record count.
	var schema *dctree.Schema
	var load func(tree *dctree.Tree) (int, error)
	switch {
	case *tpcdN != 0 && (*schemaPath != "" || *csvPath != ""):
		return fmt.Errorf("-tpcd generates its own schema and data; it excludes -schema and -csv")
	case *tpcdN < 0:
		return fmt.Errorf("-tpcd must be positive")
	case *tpcdN > 0:
		gen, err := tpcd.New(*seed, tpcd.ScaleFor(*tpcdN))
		if err != nil {
			return err
		}
		schema = gen.Schema()
		load = func(tree *dctree.Tree) (int, error) {
			for i := 0; i < *tpcdN; i++ {
				if err := tree.Insert(gen.Record()); err != nil {
					return i, fmt.Errorf("record %d: %w", i+1, err)
				}
			}
			return *tpcdN, nil
		}
	case *schemaPath == "" || *csvPath == "":
		return fmt.Errorf("-schema and -csv (or -tpcd) are required")
	default:
		var spec *schemaSpec
		var err error
		if schema, spec, err = loadSchema(*schemaPath); err != nil {
			return err
		}
		if schema, err = csvScales(schema, spec, *csvPath); err != nil {
			return err
		}
		load = func(tree *dctree.Tree) (int, error) {
			return scanCSV(spec, *csvPath, func(paths [][]string, measures []float64) error {
				rec, err := schema.InternRecord(paths, measures)
				if err != nil {
					return err
				}
				return tree.Insert(rec)
			})
		}
	}

	cfg := dctree.DefaultConfig()
	store, err := dctree.OpenFileStore(*indexPath, cfg.BlockSize)
	if err != nil {
		return err
	}
	defer store.Close()
	tree, err := dctree.Open(store, dctree.WithSchema(schema), dctree.WithConfig(cfg))
	if err != nil {
		return err
	}
	n, err := load(tree)
	if err != nil {
		return err
	}
	if err := tree.Flush(); err != nil {
		return err
	}
	fmt.Printf("indexed %d records into %s (height %d)\n", n, *indexPath, tree.Height())
	return nil
}

// csvScales returns the schema with each measure's decimal scale read off
// the CSV at path: the most, over its column, of each value's smallest
// scale (cube.ScaleOf).
func csvScales(schema *dctree.Schema, spec *schemaSpec, path string) (*dctree.Schema, error) {
	scales := make([]int, len(spec.Measures))
	_, err := scanCSV(spec, path, func(_ [][]string, measures []float64) error {
		for j, x := range measures {
			s := cube.ScaleOf(x)
			if s < 0 {
				return fmt.Errorf("measure %q: no decimal scale up to %d holds %v", spec.Measures[j], cube.MaxScale, x)
			}
			scales[j] = max(scales[j], s)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return schema.WithScales(scales...)
}

// scanCSV hands row every data row of the CSV at path — its dimension
// paths, top level first, and its measures — and returns the row count.
func scanCSV(spec *schemaSpec, path string, row func(paths [][]string, measures []float64) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	header, err := r.Read()
	if err != nil {
		return 0, fmt.Errorf("reading CSV header: %w", err)
	}
	col := make(map[string]int, len(header))
	for i, h := range header {
		col[strings.TrimSpace(h)] = i
	}

	// Resolve the column index of every dimension level (top-down) and
	// measure up front.
	type dimCols struct{ topDown []int }
	var dims []dimCols
	for _, d := range spec.Dimensions {
		dc := dimCols{}
		for i := len(d.Levels) - 1; i >= 0; i-- { // top level first
			name := d.Name + "." + d.Levels[i]
			idx, ok := col[name]
			if !ok {
				return 0, fmt.Errorf("CSV missing column %q", name)
			}
			dc.topDown = append(dc.topDown, idx)
		}
		dims = append(dims, dc)
	}
	var measureCols []int
	for _, m := range spec.Measures {
		idx, ok := col[m]
		if !ok {
			return 0, fmt.Errorf("CSV missing measure column %q", m)
		}
		measureCols = append(measureCols, idx)
	}

	n := 0
	for {
		line, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("row %d: %w", n+2, err)
		}
		paths := make([][]string, len(dims))
		for d, dc := range dims {
			path := make([]string, len(dc.topDown))
			for i, c := range dc.topDown {
				path[i] = line[c]
			}
			paths[d] = path
		}
		measures := make([]float64, len(measureCols))
		for j, c := range measureCols {
			v, err := strconv.ParseFloat(strings.TrimSpace(line[c]), 64)
			if err != nil {
				return n, fmt.Errorf("row %d: measure %q: %w", n+2, line[c], err)
			}
			measures[j] = v
		}
		if err := row(paths, measures); err != nil {
			return n, fmt.Errorf("row %d: %w", n+2, err)
		}
		n++
	}
	return n, nil
}

// parseWhere parses 'Dim.Level=V1|V2|V3'.
func parseWhere(expr string) (dim, level string, values []string, err error) {
	eq := strings.IndexByte(expr, '=')
	if eq < 0 {
		return "", "", nil, fmt.Errorf("bad -where %q: want Dim.Level=V1|V2", expr)
	}
	lhs, rhs := expr[:eq], expr[eq+1:]
	dot := strings.IndexByte(lhs, '.')
	if dot < 0 {
		return "", "", nil, fmt.Errorf("bad -where %q: want Dim.Level=...", expr)
	}
	values = strings.Split(rhs, "|")
	if len(values) == 0 || rhs == "" {
		return "", "", nil, fmt.Errorf("bad -where %q: empty value list", expr)
	}
	return lhs[:dot], lhs[dot+1:], values, nil
}

// multiFlag collects repeated -where flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ";") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func openTree(indexPath string) (*dctree.Tree, dctree.Store, error) {
	cfg := dctree.DefaultConfig()
	store, err := dctree.OpenFileStore(indexPath, cfg.BlockSize)
	if err != nil {
		return nil, nil, err
	}
	tree, err := dctree.Open(store)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	return tree, store, nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	opName := fs.String("op", "SUM", "aggregation: SUM, COUNT, AVG, MIN, MAX")
	measure := fs.String("measure", "", "measure name (default: first)")
	metrics := fs.Bool("metrics", false, "dump tree metrics in Prometheus text format after the query")
	var wheres multiFlag
	fs.Var(&wheres, "where", "constraint Dim.Level=V1|V2 (repeatable)")
	fs.Parse(args)

	tree, store, err := openTree(*indexPath)
	if err != nil {
		return err
	}
	defer store.Close()
	schema := tree.Schema()

	b := dctree.NewQuery(schema)
	for _, w := range wheres {
		dim, level, values, err := parseWhere(w)
		if err != nil {
			return err
		}
		b = b.Where(dim, level, values...)
	}
	q, err := b.Build()
	if err != nil {
		return err
	}

	j := 0
	if *measure != "" {
		j, err = schema.MeasureIndex(*measure)
		if err != nil {
			return err
		}
	}
	op, err := parseOp(*opName)
	if err != nil {
		return err
	}
	res, err := tree.Execute(context.Background(),
		dctree.QueryRequest{Query: q, Measure: j, CollectStats: true})
	if err != nil {
		return err
	}
	v, st := res.Agg.Value(op), res.Stats
	name, _ := schema.MeasureName(j)
	fmt.Printf("%s(%s) = %g\n", op, name, v)
	fmt.Printf("nodes visited: %d, entries scanned: %d, entries pruned: %d, materialized hits: %d, records matched: %d\n",
		st.NodesVisited, st.EntriesScanned, st.EntriesPruned, st.MaterializedHits, st.RecordsMatched)
	if *metrics {
		fmt.Println()
		if err := tree.Metrics().WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// parseOp reads -op in any case: the operator's name as cube.ParseOp
// spells it, upper-cased.
func parseOp(s string) (dctree.Op, error) { return cube.ParseOp(strings.ToUpper(s)) }

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	metrics := fs.Bool("metrics", false, "dump tree metrics in Prometheus text format")
	fs.Parse(args)

	tree, store, err := openTree(*indexPath)
	if err != nil {
		return err
	}
	defer store.Close()

	fmt.Printf("records: %d\nheight:  %d\n", tree.Count(), tree.Height())
	// The leaf kernel this host's queries run: read latencies differ
	// between hosts that differ here (OPERATIONS.md).
	fmt.Printf("leaf kernel: %s\n", index.LeafKernel())
	levels, err := tree.LevelStats()
	if err != nil {
		return err
	}
	fmt.Println("level  nodes  supernodes  avg_entries  avg_blocks  encoded_bytes  max_encoded_bytes  avg_entry_values  fill")
	for _, l := range levels {
		fmt.Printf("%5d  %5d  %10d  %11.1f  %10.2f  %13d  %17d  %16.1f  %4.2f\n",
			l.Level, l.Nodes, l.Supernodes, l.AvgEntries, l.AvgBlocks, l.EncodedBytes, l.MaxEncodedBytes, l.AvgEntryValues, l.Fill)
	}
	if *metrics {
		fmt.Println()
		if err := tree.Metrics().WriteProm(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

// runExport dumps every indexed record back to CSV in the same column
// convention `build` consumes, so an index round-trips:
// build → export → build yields an equivalent index.
func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	outPath := fs.String("out", "", "output CSV (default stdout)")
	fs.Parse(args)

	tree, store, err := openTree(*indexPath)
	if err != nil {
		return err
	}
	defer store.Close()
	schema := tree.Schema()

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	w := csv.NewWriter(out)

	var header []string
	for d := 0; d < schema.Dims(); d++ {
		h, err := schema.Dim(d)
		if err != nil {
			return err
		}
		for level := h.TopLevel(); level >= 0; level-- {
			name, err := h.LevelName(level)
			if err != nil {
				return err
			}
			header = append(header, h.Name()+"."+name)
		}
	}
	for j := 0; j < schema.Measures(); j++ {
		name, err := schema.MeasureName(j)
		if err != nil {
			return err
		}
		header = append(header, name)
	}
	if err := w.Write(header); err != nil {
		return err
	}

	var scanErr error
	n := 0
	err = tree.Scan(func(rec dctree.Record) bool {
		row := make([]string, 0, len(header))
		for d := 0; d < schema.Dims(); d++ {
			h, err := schema.Dim(d)
			if err != nil {
				scanErr = err
				return false
			}
			for level := h.TopLevel(); level >= 0; level-- {
				anc, err := h.AncestorAt(rec.Coords[d], level)
				if err != nil {
					scanErr = err
					return false
				}
				name, err := h.ValueName(anc)
				if err != nil {
					scanErr = err
					return false
				}
				row = append(row, name)
			}
		}
		for _, m := range rec.Measures {
			row = append(row, strconv.FormatFloat(m, 'f', -1, 64))
		}
		if err := w.Write(row); err != nil {
			scanErr = err
			return false
		}
		n++
		return true
	})
	if err != nil {
		return err
	}
	if scanErr != nil {
		return scanErr
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "exported %d records\n", n)
	return nil
}

// runRecover is the operator-facing crash-recovery entry point: replay the
// WAL tail into the index, validate, checkpoint.
func runRecover(args []string) error {
	fs := flag.NewFlagSet("recover", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	walPrefix := fs.String("wal", "", "write-ahead log file prefix (<prefix>.<n>.wal)")
	checkpoint := fs.Bool("checkpoint", true, "write a checkpoint after replay, truncating the log")
	fs.Parse(args)
	if *walPrefix == "" {
		return fmt.Errorf("-wal is required")
	}

	cfg := dctree.DefaultConfig()
	store, err := dctree.OpenFileStore(*indexPath, cfg.BlockSize)
	if err != nil {
		return err
	}
	defer store.Close()
	tree, err := dctree.Open(store, dctree.WithWAL(*walPrefix, dctree.WALOptions{}))
	if err != nil {
		return err
	}
	m := tree.Metrics()
	fmt.Printf("replayed %d log records; index now holds %d records (height %d)\n",
		m.RecoveryReplayedRecords, tree.Count(), tree.Height())
	if err := tree.Validate(); err != nil {
		return fmt.Errorf("recovered index failed validation: %w", err)
	}
	if *checkpoint {
		if err := tree.Flush(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Println("checkpoint written; log truncated")
	}
	return tree.Close()
}

// runVersions lists MVCC versions and optionally prunes them. Versions
// persisted by a checkpoint (meta v8) rehydrate on a plain open; pass -wal
// as well to additionally reconstruct versions whose records are still in
// the log tail. Pruning works either way: -prune releases by ID (or 'all'),
// -keep-last/-max-age apply a retention policy, and a checkpoint is written
// afterwards so the released extents land on the durable freelist.
func runVersions(args []string) error {
	fs := flag.NewFlagSet("versions", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	walPrefix := fs.String("wal", "", "write-ahead log file prefix; also replays the tail to reconstruct versions")
	prune := fs.String("prune", "", "release version by ID, or 'all'")
	keepLast := fs.Int("keep-last", 0, "retention: keep only the newest N versions")
	maxAge := fs.Duration("max-age", 0, "retention: release versions older than this (e.g. 72h)")
	fs.Parse(args)

	var tree *dctree.Tree
	if *walPrefix != "" {
		cfg := dctree.DefaultConfig()
		store, err := dctree.OpenFileStore(*indexPath, cfg.BlockSize)
		if err != nil {
			return err
		}
		defer store.Close()
		tree, err = dctree.Open(store, dctree.WithWAL(*walPrefix, dctree.WALOptions{}))
		if err != nil {
			return err
		}
	} else {
		var store dctree.Store
		var err error
		tree, store, err = openTree(*indexPath)
		if err != nil {
			return err
		}
		defer store.Close()
	}

	latestID, latestLSN := tree.LatestVersion()
	if latestID == 0 {
		fmt.Println("no version has ever been captured")
	} else {
		fmt.Printf("latest version stamp: id=%d lsn=%d\n", latestID, latestLSN)
	}
	infos := tree.Versions()
	if len(infos) == 0 {
		fmt.Println("0 live versions")
	}
	for _, vi := range infos {
		durable := "volatile"
		if vi.Persisted {
			durable = "durable"
		}
		fmt.Printf("version %d: lsn=%d records=%d overlay-nodes=%d pinned-extents=%d %s created=%s\n",
			vi.ID, vi.LSN, vi.Records, vi.Overlay, vi.Pinned, durable,
			vi.CreatedAt.Format("2006-01-02T15:04:05Z07:00"))
	}

	pruned := 0
	if *prune != "" {
		if *prune == "all" {
			for _, vi := range infos {
				if err := tree.ReleaseVersion(vi.ID); err != nil {
					return err
				}
				pruned++
			}
		} else {
			id, err := strconv.ParseUint(*prune, 10, 64)
			if err != nil {
				return fmt.Errorf("bad -prune value %q: %w", *prune, err)
			}
			if err := tree.ReleaseVersion(id); err != nil {
				return err
			}
			pruned++
		}
	}
	if *keepLast > 0 || *maxAge > 0 {
		pruned += len(tree.PruneVersionsPolicy(dctree.VersionRetention{
			KeepLast: *keepLast, MaxAge: *maxAge,
		}))
	}
	if pruned > 0 {
		// Checkpoint so the freed extents land on the durable freelist, the
		// released versions drop out of the meta manifests, and the log
		// truncates past the released version records.
		if err := tree.Flush(); err != nil {
			return fmt.Errorf("checkpoint after prune: %w", err)
		}
		fmt.Printf("pruned %d version(s); checkpoint written\n", pruned)
	}
	if *walPrefix != "" {
		return tree.Close()
	}
	return nil
}

func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	fs.Parse(args)

	tree, store, err := openTree(*indexPath)
	if err != nil {
		return err
	}
	defer store.Close()
	if err := tree.Validate(); err != nil {
		return err
	}
	for d := 0; d < tree.Schema().Dims(); d++ {
		h, err := tree.Schema().Dim(d)
		if err != nil {
			return err
		}
		if err := h.Validate(); err != nil {
			return err
		}
	}
	fmt.Printf("%s: OK (%d records, height %d)\n", *indexPath, tree.Count(), tree.Height())
	return nil
}

// runVerify is the physical-integrity check: opening the store already
// verifies the header, freelist and metadata checksums; the extent scan
// then covers every page the translation table references or a live
// version pins.
func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	indexPath := fs.String("index", "index.dc", "index file")
	fs.Parse(args)

	tree, store, err := openTree(*indexPath)
	if err != nil {
		return err
	}
	defer store.Close()
	rep := tree.VerifyExtents()
	for _, e := range rep.Errors {
		owner := "live tree"
		if e.Version != 0 {
			owner = fmt.Sprintf("version %d", e.Version)
		}
		fmt.Fprintf(os.Stderr, "%s, node %d: extent %d (%d blocks): %v\n",
			owner, e.NodeID, e.Page, e.Blocks, e.Err)
	}
	if !rep.OK() {
		return fmt.Errorf("%d of %d extents damaged", len(rep.Errors), rep.Extents)
	}
	fmt.Printf("%s: OK (%d extents, %d blocks scanned)\n", *indexPath, rep.Extents, rep.Blocks)
	return nil
}
