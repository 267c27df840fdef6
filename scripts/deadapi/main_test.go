package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The fixture module holds one dead declaration of each kind, one dead case
// per way a field or var is only written, an interface method nobody calls
// with its two implementations, one live case per rule that makes a
// reference-free declaration used, a field only bench/ writes, a
// declaration only its test uses, and an unused declaration in its root
// package (the facade, never reported). The report is exactly the dead ones
// and the test-only one.
func TestFixtureReport(t *testing.T) {
	got, err := check(filepath.Join("testdata", "mod"), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:13: lib.DeadFunc",
		"lib/lib.go:17: lib.Box.dead",
		"lib/lib.go:21: lib.Box.DeadMethod",
		"lib/lib.go:25: lib.DeadVar",
		"lib/lib.go:27: lib.DeadConst",
		"lib/lib.go:29: lib.OnlyTested",
		"lib/lib.go:36: lib.Log.assigned",
		"lib/lib.go:37: lib.Log.counter",
		"lib/lib.go:38: lib.Log.keyed",
		"lib/lib.go:39: lib.Log.entries",
		"lib/lib.go:40: lib.Log.byValue",
		"lib/lib.go:56: lib.lastRecorded",
		"lib/lib.go:62: lib.Shape.Kind",
		"lib/lib.go:68: lib.Square.Kind",
		"lib/lib.go:73: lib.Rect.Kind",
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
		"lib/lib.go:17: lib.Box.dead",
		"lib/lib.go:21: lib.Box.DeadMethod",
		"lib/lib.go:25: lib.DeadVar",
		"lib/lib.go:27: lib.DeadConst",
		"lib/lib.go:29: lib.OnlyTested",
		"lib/lib.go:36: lib.Log.assigned",
		"lib/lib.go:37: lib.Log.counter",
		"lib/lib.go:38: lib.Log.keyed",
		"lib/lib.go:39: lib.Log.entries",
		"lib/lib.go:40: lib.Log.byValue",
		"lib/lib.go:56: lib.lastRecorded",
		"lib/lib.go:62: lib.Shape.Kind",
		"lib/lib.go:68: lib.Square.Kind",
		"lib/lib.go:73: lib.Rect.Kind",
		"allowlisted but used or gone: lib.Gone",
		"allowlisted but used or gone: lib.On",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report:\n%q\nwant:\n%q", got, want)
	}
}
