package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"gq/internal/obs"
)

// workerRun is what one sharded soak run puts on the determinism surface.
type workerRun struct {
	journal  []byte
	snapshot *obs.Snapshot
	// records are the run's other deterministic records (health
	// histories, escalation records, recovery intervals), by name.
	records  map[string]any
	problems []string
}

// healthTransitions is the journal's supervision record of one subfarm's
// endpoints: every event its supervisor journalled (down, restart, up,
// quarantine per endpoint, and its escalations), one NDJSON line each.
func healthTransitions(journal []byte, subfarm string) []string {
	var out []string
	scope := []byte(`"scope":"` + obs.EvSupervisorPrefix + subfarm + `"`)
	for _, line := range bytes.Split(journal, []byte{'\n'}) {
		if bytes.Contains(line, scope) {
			out = append(out, string(line))
		}
	}
	return out
}

// assertSameAcrossWorkers runs a sharded soak at 1, 2 and 4 workers and
// demands a clean run each time and, against workers=1, a byte-identical
// journal, an identical metrics snapshot and DeepEqual records: worker
// count only decides which OS thread runs a domain's window; it must never
// leak into results.
func assertSameAcrossWorkers(t *testing.T, run func(workers int) (workerRun, error)) {
	t.Helper()
	var ref workerRun
	for _, workers := range []int{1, 2, 4} {
		got, err := run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, problem := range got.problems {
			t.Errorf("workers=%d: %s", workers, problem)
		}
		if workers == 1 {
			ref = got
			continue
		}
		if !bytes.Equal(ref.journal, got.journal) {
			t.Errorf("workers=%d: journal differs from workers=1 (%d vs %d bytes) — sharded execution is not deterministic",
				workers, len(got.journal), len(ref.journal))
		}
		if !reflect.DeepEqual(ref.snapshot, got.snapshot) {
			t.Errorf("workers=%d: metrics snapshot differs from workers=1", workers)
		}
		for name, want := range ref.records {
			if !reflect.DeepEqual(want, got.records[name]) {
				t.Errorf("workers=%d: %s differs from workers=1:\n  ref: %v\n  got: %v",
					workers, name, want, got.records[name])
			}
		}
	}
}
