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
		"testdata/knobs.md:30: DirCapacityMax is not a field of Config",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("problems:\n%q\nwant:\n%q", got, want)
	}
}
