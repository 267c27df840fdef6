package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The fixture module holds one dead declaration of each kind, one live case
// per rule that makes a reference-free declaration used, a declaration only
// its test uses, and an unused declaration in its root package (the facade,
// never reported). The report is exactly the dead ones and the test-only one.
func TestFixtureReport(t *testing.T) {
	got, err := check(filepath.Join("testdata", "mod"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:10: lib.DeadFunc",
		"lib/lib.go:14: lib.Box.dead",
		"lib/lib.go:17: lib.Box.DeadMethod",
		"lib/lib.go:21: lib.DeadVar",
		"lib/lib.go:23: lib.DeadConst",
		"lib/lib.go:25: lib.OnlyTested",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report:\n%q\nwant:\n%q", got, want)
	}
}

// An allowlisted finding is left out of the report; an allowlist entry that
// names nothing dead is reported, so the list cannot outlive its reasons.
func TestAllowlist(t *testing.T) {
	got, err := check(filepath.Join("testdata", "mod"), map[string]string{
		"lib.DeadFunc": "kept",
		"lib.On":       "used",
		"lib.Gone":     "deleted",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:14: lib.Box.dead",
		"lib/lib.go:17: lib.Box.DeadMethod",
		"lib/lib.go:21: lib.DeadVar",
		"lib/lib.go:23: lib.DeadConst",
		"lib/lib.go:25: lib.OnlyTested",
		"allowlisted but used or gone: lib.Gone",
		"allowlisted but used or gone: lib.On",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report:\n%q\nwant:\n%q", got, want)
	}
}
