package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	dctree "github.com/dcindex/dctree"
	"github.com/dcindex/dctree/internal/index"
	"github.com/dcindex/dctree/internal/repl"
)

func TestParseWhere(t *testing.T) {
	dim, level, values, err := parseWhere("Customer.Region=EUROPE|ASIA")
	if err != nil {
		t.Fatal(err)
	}
	if dim != "Customer" || level != "Region" || len(values) != 2 || values[1] != "ASIA" {
		t.Fatalf("parsed %q %q %v", dim, level, values)
	}
	for _, bad := range []string{"CustomerRegion=EUROPE", "Customer.Region", "Customer.Region=", "=X"} {
		if _, _, _, err := parseWhere(bad); err == nil {
			t.Errorf("parseWhere(%q) accepted", bad)
		}
	}
}

func TestParseOp(t *testing.T) {
	for _, s := range []string{"SUM", "sum", "Count", "AVG", "min", "MAX"} {
		if _, err := parseOp(s); err != nil {
			t.Errorf("parseOp(%q): %v", s, err)
		}
	}
	if _, err := parseOp("MEDIAN"); err == nil {
		t.Error("parseOp(MEDIAN) accepted")
	}
}

func TestLoadSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "schema.json")
	spec := `{
	  "dimensions": [
	    {"name": "Customer", "levels": ["Customer", "Nation", "Region"]},
	    {"name": "Time", "levels": ["Month", "Year"]}
	  ],
	  "measures": ["Revenue", "Quantity"]
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	schema, raw, err := loadSchema(path)
	if err != nil {
		t.Fatal(err)
	}
	if schema.Dims() != 2 || schema.Measures() != 2 {
		t.Fatalf("schema shape %d/%d", schema.Dims(), schema.Measures())
	}
	if len(raw.Dimensions) != 2 || raw.Dimensions[1].Name != "Time" {
		t.Fatalf("spec mismatch: %+v", raw)
	}
	if _, _, err := loadSchema(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, _, err := loadSchema(bad); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestBuildQueryRoundtrip drives the full build → query → stats → fsck
// pipeline through the exported command helpers.
func TestBuildQueryRoundtrip(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.json")
	csvPath := filepath.Join(dir, "data.csv")
	indexPath := filepath.Join(dir, "idx.dc")
	os.WriteFile(schemaPath, []byte(`{
	  "dimensions": [
	    {"name": "Customer", "levels": ["Customer", "Nation", "Region"]},
	    {"name": "Time", "levels": ["Month", "Year"]}
	  ],
	  "measures": ["Revenue"]
	}`), 0o644)
	os.WriteFile(csvPath, []byte(
		"Customer.Region,Customer.Nation,Customer.Customer,Time.Year,Time.Month,Revenue\n"+
			"EUROPE,GERMANY,C1,1996,1996-01,100.5\n"+
			"EUROPE,FRANCE,C2,1996,1996-02,50\n"+
			"ASIA,JAPAN,C3,1997,1997-01,400\n"), 0o644)

	if err := runBuild([]string{"-schema", schemaPath, "-csv", csvPath, "-index", indexPath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := runQuery([]string{"-index", indexPath, "-where", "Customer.Region=EUROPE", "-op", "SUM"}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if err := runStats([]string{"-index", indexPath}); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := runFsck([]string{"-index", indexPath}); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	// Export round-trips: the exported CSV rebuilds an equivalent index.
	exported := filepath.Join(dir, "export.csv")
	if err := runExport([]string{"-index", indexPath, "-out", exported}); err != nil {
		t.Fatalf("export: %v", err)
	}
	index2 := filepath.Join(dir, "idx2.dc")
	if err := runBuild([]string{"-schema", schemaPath, "-csv", exported, "-index", index2}); err != nil {
		t.Fatalf("rebuild from export: %v", err)
	}
	if err := runQuery([]string{"-index", index2, "-where", "Customer.Region=EUROPE", "-op", "SUM"}); err != nil {
		t.Fatalf("query on rebuilt index: %v", err)
	}
	if err := runExport([]string{"-index", filepath.Join(dir, "missing.dc")}); err == nil {
		t.Fatal("export of missing index accepted")
	}

	// Error paths.
	if err := runBuild([]string{"-schema", schemaPath, "-csv", filepath.Join(dir, "nope.csv"), "-index", indexPath}); err == nil {
		t.Fatal("missing CSV accepted")
	}
	if err := runQuery([]string{"-index", indexPath, "-where", "bogus"}); err == nil {
		t.Fatal("bogus -where accepted")
	}
	if err := runQuery([]string{"-index", indexPath, "-where", "Customer.Region=ATLANTIS"}); err == nil {
		t.Fatal("unknown value accepted")
	}
	if err := runQuery([]string{"-index", filepath.Join(dir, "missing.dc")}); err == nil {
		t.Fatal("missing index accepted")
	}
}

// TestVerifyCommand drives the physical-integrity check: a freshly built
// index verifies clean, and a single flipped byte in a node extent makes
// verify fail instead of passing silently.
func TestVerifyCommand(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.json")
	csvPath := filepath.Join(dir, "data.csv")
	indexPath := filepath.Join(dir, "idx.dc")
	os.WriteFile(schemaPath, []byte(`{
	  "dimensions": [{"name": "Customer", "levels": ["Customer", "Nation", "Region"]}],
	  "measures": ["Revenue"]
	}`), 0o644)
	os.WriteFile(csvPath, []byte(
		"Customer.Region,Customer.Nation,Customer.Customer,Revenue\n"+
			"EUROPE,GERMANY,C1,100.5\n"+
			"ASIA,JAPAN,C2,400\n"), 0o644)
	if err := runBuild([]string{"-schema", schemaPath, "-csv", csvPath, "-index", indexPath}); err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := runVerify([]string{"-index", indexPath}); err != nil {
		t.Fatalf("verify on fresh index: %v", err)
	}

	// Flip one payload byte of the first extent (the root node: build
	// allocates node extents before the metadata and freelist blocks).
	f, err := os.OpenFile(indexPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(dctree.DefaultConfig().BlockSize) + 12 + 5
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := runVerify([]string{"-index", indexPath}); err == nil {
		t.Fatal("verify accepted a damaged index")
	}
}

// captureStdout runs a command helper and returns what it printed.
func captureStdout(t *testing.T, run func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run()
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return string(out)
}

// TestMetricsFlag drives query -metrics and stats -metrics and checks the
// Prometheus text dump reaches stdout.
func TestMetricsFlag(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.json")
	csvPath := filepath.Join(dir, "data.csv")
	indexPath := filepath.Join(dir, "idx.dc")
	os.WriteFile(schemaPath, []byte(`{
	  "dimensions": [{"name": "Customer", "levels": ["Customer", "Nation", "Region"]}],
	  "measures": ["Revenue"]
	}`), 0o644)
	os.WriteFile(csvPath, []byte(
		"Customer.Region,Customer.Nation,Customer.Customer,Revenue\n"+
			"EUROPE,GERMANY,C1,100.5\n"+
			"ASIA,JAPAN,C2,400\n"), 0o644)
	if err := runBuild([]string{"-schema", schemaPath, "-csv", csvPath, "-index", indexPath}); err != nil {
		t.Fatalf("build: %v", err)
	}

	out := captureStdout(t, func() error {
		return runQuery([]string{"-index", indexPath, "-where", "Customer.Region=EUROPE", "-metrics"})
	})
	for _, want := range []string{
		"SUM(Revenue) = 100.5",
		"# TYPE dctree_queries_total counter",
		"dctree_queries_total 1",
		`dctree_splits_total{kind="hierarchy"}`,
		"dctree_query_duration_seconds_count 1",
		"dctree_store_reads_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("query -metrics output missing %q in:\n%s", want, out)
		}
	}

	out = captureStdout(t, func() error {
		return runStats([]string{"-index", indexPath, "-metrics"})
	})
	for _, want := range []string{"records: 2", "leaf kernel: " + index.LeafKernel() + "\n", "max_encoded_bytes  avg_entry_values  fill", "dctree_records 2", "dctree_height 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats -metrics output missing %q in:\n%s", want, out)
		}
	}
}

// TestBuildRejectsBadCSV covers the CSV validation paths.
func TestBuildRejectsBadCSV(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.json")
	os.WriteFile(schemaPath, []byte(`{
	  "dimensions": [{"name": "D", "levels": ["Leaf", "Top"]}],
	  "measures": ["M"]
	}`), 0o644)

	cases := map[string]string{
		"missing column": "D.Top,M\nA,1\n",
		"bad measure":    "D.Top,D.Leaf,M\nA,x,notanumber\n",
	}
	for name, csv := range cases {
		csvPath := filepath.Join(dir, name+".csv")
		os.WriteFile(csvPath, []byte(csv), 0o644)
		if err := runBuild([]string{"-schema", schemaPath, "-csv", csvPath,
			"-index", filepath.Join(dir, name+".dc")}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := runBuild([]string{"-csv", "x.csv"}); err == nil {
		t.Error("missing -schema accepted")
	}
}

// TestBuildTPCD: `build -tpcd N` indexes the generator's records directly,
// and the result is the index the CSV path builds from the same records —
// same count, same answers, both clean under fsck and verify.
func TestBuildTPCD(t *testing.T) {
	dir := t.TempDir()
	direct := filepath.Join(dir, "direct.dc")
	if err := runBuild([]string{"-tpcd", "1500", "-seed", "7", "-index", direct}); err != nil {
		t.Fatalf("build -tpcd: %v", err)
	}

	// The two-step pipeline over the same records: CSV out, CSV in.
	schemaPath := filepath.Join(dir, "schema.json")
	csvPath := filepath.Join(dir, "data.csv")
	viaCSV := filepath.Join(dir, "csv.dc")
	os.WriteFile(schemaPath, []byte(`{
	  "dimensions": [
	    {"name": "Customer", "levels": ["Customer", "MktSegment", "Nation", "Region"]},
	    {"name": "Supplier", "levels": ["Supplier", "Nation", "Region"]},
	    {"name": "Part", "levels": ["Part", "Type", "Brand"]},
	    {"name": "Time", "levels": ["Day", "Month", "Year"]}
	  ],
	  "measures": ["ExtendedPrice"]
	}`), 0o644)
	if err := runExport([]string{"-index", direct, "-out", csvPath}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := runBuild([]string{"-schema", schemaPath, "-csv", csvPath, "-index", viaCSV}); err != nil {
		t.Fatalf("build from exported CSV: %v", err)
	}

	answer := func(index, op string) string {
		out := captureStdout(t, func() error {
			return runQuery([]string{"-index", index, "-op", op,
				"-where", "Customer.Region=AFRICA|ASIA", "-where", "Time.Year=1996"})
		})
		return strings.SplitN(out, "\n", 2)[0]
	}
	for _, index := range []string{direct, viaCSV} {
		tree, store, err := openTree(index)
		if err != nil {
			t.Fatal(err)
		}
		if tree.Count() != 1500 {
			t.Fatalf("%s: %d records, want 1500", index, tree.Count())
		}
		store.Close()
		if err := runFsck([]string{"-index", index}); err != nil {
			t.Fatalf("fsck %s: %v", index, err)
		}
		if err := runVerify([]string{"-index", index}); err != nil {
			t.Fatalf("verify %s: %v", index, err)
		}
	}
	// COUNT and MAX do not depend on the order records were folded in.
	for _, op := range []string{"COUNT", "MAX"} {
		a, b := answer(direct, op), answer(viaCSV, op)
		if a != b || strings.HasSuffix(a, "= 0") {
			t.Fatalf("%s: direct %q, via CSV %q", op, a, b)
		}
	}

	for _, args := range [][]string{
		{"-tpcd", "10", "-csv", csvPath, "-index", filepath.Join(dir, "x.dc")},
		{"-tpcd", "10", "-schema", schemaPath, "-index", filepath.Join(dir, "x.dc")},
		{"-tpcd", "-5", "-index", filepath.Join(dir, "x.dc")},
	} {
		if err := runBuild(args); err == nil {
			t.Errorf("build %v accepted", args)
		}
	}
}

// TestReplicaAutoPromoteNeedsLease: on the filesystem transport the lease
// file is the only failure detector, and nothing refreshes a lease the
// operator did not set up. Inventing <from>.lease made the source read as
// down from the first pass, so -auto-promote promoted the standby beside a
// live primary; it is now a usage error, raised before a follower exists.
func TestReplicaAutoPromoteNeedsLease(t *testing.T) {
	dir := t.TempDir()
	replicaDir := filepath.Join(dir, "standby")
	err := runReplica([]string{"-dir", replicaDir, "-from", filepath.Join(dir, "primary"), "-auto-promote"})
	if err == nil || !strings.Contains(err.Error(), "-lease") {
		t.Fatalf("runReplica = %v, want the -lease usage error", err)
	}
	if _, statErr := os.Stat(replicaDir); !os.IsNotExist(statErr) {
		t.Fatalf("replica directory was created (%v): a follower started before the flag check", statErr)
	}
}

// TestNoLeaseMeansHealthy: without -lease, `replica` and `ship` run with no
// failure detector — the source reports healthy although no lease file
// exists anywhere — and a configured lease is honored as given.
func TestNoLeaseMeansHealthy(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "primary")
	src, ok := replicaSource(prefix, "", repl.DefaultLeaseTTL).(*repl.DirSource)
	if !ok {
		t.Fatalf("a path prefix did not select the filesystem transport")
	}
	if src.Lease != "" || !src.Healthy() {
		t.Fatalf("no -lease: lease %q, healthy %v; want none and healthy", src.Lease, src.Healthy())
	}
	if ship := dirSource(prefix, "", repl.DefaultLeaseTTL); !ship.Healthy() {
		t.Fatal("ship without -lease reports unhealthy")
	}
	lease := prefix + ".lease"
	if dirSource(prefix, lease, time.Minute).Healthy() {
		t.Fatal("a configured lease that does not exist reports healthy")
	}
	if err := os.WriteFile(lease, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if !dirSource(prefix, lease, time.Minute).Healthy() {
		t.Fatal("a fresh lease reports unhealthy")
	}
}

// TestRetiredIndexRefused: an index of a retired format generation is
// refused by every subcommand that opens one, with the unsupported-format
// error, and the refusal leaves the file byte for byte what it was — and
// creates no log beside it. The index is one this build wrote, its metadata
// blob re-labelled DCMETA11, the generation DCMETA12 retired; testdata/tpcd-09 in internal/core is the
// index the last DCMETA09 build's `build -tpcd 2000` wrote, refused the same
// way; testdata/parent-pr12 there is a whole image an earlier build wrote,
// at a block size the tool does not open (the store header refuses it
// first). All three must stay untouched.
func TestRetiredIndexRefused(t *testing.T) {
	dir := t.TempDir()
	index, wal := filepath.Join(dir, "idx.dc"), filepath.Join(dir, "log")
	if err := runBuild([]string{"-tpcd", "300", "-index", index}); err != nil {
		t.Fatalf("build: %v", err)
	}
	store, err := dctree.OpenFileStore(index, dctree.DefaultConfig().BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := store.GetMeta()
	if err != nil || !bytes.HasPrefix(meta, []byte("DCMETA12")) {
		t.Fatalf("metadata does not start with DCMETA12 (err %v)", err)
	}
	meta[6], meta[7] = '1', '1'
	if err := store.SetMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	copyFixture := func(name string) string {
		path := filepath.Join(dir, name+".dc")
		data, err := os.ReadFile(filepath.Join("..", "..", "internal", "core", "testdata", name, "store.dc"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fixture, tpcd09 := copyFixture("parent-pr12"), copyFixture("tpcd-09")

	sum := func(path string) [sha256.Size]byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(data)
	}
	before, beforeFixture, beforeTPCD := sum(index), sum(fixture), sum(tpcd09)
	for name, run := range map[string]func(index string) error{
		"stats":  func(index string) error { return runStats([]string{"-index", index}) },
		"query":  func(index string) error { return runQuery([]string{"-index", index}) },
		"verify": func(index string) error { return runVerify([]string{"-index", index}) },
		"fsck":   func(index string) error { return runFsck([]string{"-index", index}) },
		"export": func(index string) error {
			return runExport([]string{"-index", index, "-out", filepath.Join(dir, "out.csv")})
		},
		"versions": func(index string) error { return runVersions([]string{"-index", index}) },
		"recover":  func(index string) error { return runRecover([]string{"-index", index, "-wal", wal}) },
	} {
		for _, path := range []string{index, tpcd09} {
			if err := run(path); !errors.Is(err, dctree.ErrUnsupportedFormat) {
				t.Errorf("%s %s: %v, want ErrUnsupportedFormat", name, filepath.Base(path), err)
			}
		}
		if err := run(fixture); err == nil {
			t.Errorf("%s opened the parent-pr12 image", name)
		}
		if sum(index) != before || sum(fixture) != beforeFixture || sum(tpcd09) != beforeTPCD {
			t.Fatalf("%s: the refusal rewrote the file it refused", name)
		}
	}
	if logs, _ := filepath.Glob(wal + "*"); len(logs) != 0 {
		t.Errorf("the refused recovery created %v", logs)
	}
}
