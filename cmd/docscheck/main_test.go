package main

import (
	"reflect"
	"testing"
)

// TestFieldRefsFixture runs the struct-field check over a fixture that
// repeats the mistake it exists for — OPERATIONS.md once told operators to
// bound autotuning with CommitIntervalMin / CommitIntervalMax, fields that
// never existed — next to every form that must pass. The fields come from
// the repository's real Go source.
func TestFieldRefsFixture(t *testing.T) {
	fields, err := structFields("../..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkFieldRefs("testdata/knobs.md", fields)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/knobs.md:4: SyncEvery is not a field of WALOptions",
		"testdata/knobs.md:5: KeepFirst is not a field of VersionRetention",
		"testdata/knobs.md:12: CommitAutoTune is not a field of Config or WALOptions",
		"testdata/knobs.md:13: CommitIntervalMin is not a field of Config or WALOptions",
		"testdata/knobs.md:13: CommitIntervalMax is not a field of Config or WALOptions",
		"testdata/knobs.md:21: PollJitter is not a field of Config or WALOptions or FollowerOptions",
		"testdata/knobs.md:30: RefineBoundMax is not a field of Config",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// TestFamilyRefsFixture runs the metric-family check over a fixture that
// names families deleted with the store buffer pool, next to every form
// that must pass: plain and labelled families, histogram series and
// prefixes. The families come from the repository's real Go source.
func TestFamilyRefsFixture(t *testing.T) {
	families, err := declaredFamilies("../..")
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkFamilyRefs("testdata/families.md", families)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/families.md:10: metric family dctree_store_pool_hit_ratio is not declared by any non-test Go file",
		"testdata/families.md:11: metric family dctree_store_pool_hits_total is not declared by any non-test Go file",
		"testdata/families.md:11: no metric family starts with dctree_nosuch_",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// TestDeclaredFamiliesFixture runs the metric-reference check over a
// fixture whose reference table leaves out a declared family that only
// prose and another table mention, and lists one family twice. The declared
// families are fixed here, so the fixture does not follow the Go source.
func TestDeclaredFamiliesFixture(t *testing.T) {
	families := map[string]bool{
		"dctree_inserts_total":          true,
		"dctree_queries_total":          true,
		"dctree_query_duration_seconds": true,
	}
	got, err := checkReference("testdata/declared.md", families)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/declared.md:9: metric family dctree_inserts_total has a second row in the metric reference",
		"testdata/declared.md: metric family dctree_queries_total has no row in the metric reference",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// TestRepoRefsFixture runs the path and program check over a fixture that
// names the retired experiment command, its package and an older retired
// generator, next to every form that must pass. The commands and paths are
// the repository's own.
func TestRepoRefsFixture(t *testing.T) {
	programs, err := commands("..", "../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	got, err := checkRepoRefs("testdata/repo.md", "../..", programs)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/repo.md:7: program dcbench is not a command under cmd/",
		"testdata/repo.md:8: path cmd/dcbench does not exist",
		"testdata/repo.md:8: path internal/views does not exist",
		"testdata/repo.md:11: program dcgen is not a command under cmd/",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// TestRoadmapRefsFixture runs the citation check over a fixture that cites
// a folded item and one that never existed — DESIGN.md and REPLICATION.md
// once did both — next to open items cited on one line and across two. The
// open items come from a fixture roadmap.
func TestRoadmapRefsFixture(t *testing.T) {
	items, err := openItems("testdata/roadmap.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]bool{"15": true, "8": true}; !reflect.DeepEqual(items, want) {
		t.Fatalf("open items %v, want %v", items, want)
	}
	got, err := checkRoadmapRefs("testdata/cites.md", items)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"testdata/cites.md:7: ROADMAP item 6 is not an open item",
		"testdata/cites.md:8: ROADMAP item 3 is not an open item",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// TestHeadingsFixture runs the heading check over a fixture that repeats a
// section the way EXPERIMENTS.md once did — its AVX2 leaf-kernel section
// twice, the copies disagreeing — next to forms that must pass: a
// heading-like comment in a code fence, and repeated headings deeper than
// ###.
func TestHeadingsFixture(t *testing.T) {
	got, err := checkHeadings("testdata/headings.md")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`testdata/headings.md:18: heading "### Runs" repeats line 5`,
		`testdata/headings.md:20: heading "## Setup" repeats line 3`,
		`testdata/headings.md:22: heading "## A leaf kernel" repeats line 7`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}
