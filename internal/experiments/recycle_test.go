package experiments

import (
	"testing"

	"gq/internal/chaos"
	"gq/internal/farm"
)

// TestRecycleSoak is the recycling pipeline's acceptance run: three
// subfarms of raw-iron inmates cycle detonate → capture → reimage →
// re-admit under the reimage-fault chaos profile. Every injected fault
// must end in a retry or a breaker quarantine (no machine wedges), the
// farm must sustain its cycle floor, containment must hold, and — like
// the chaos soak — the sharded run must produce byte-identical journals
// and identical snapshots at 1, 2 and 4 workers.
func TestRecycleSoak(t *testing.T) {
	profile, err := chaos.Parse("reimage")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11

	assertSameAcrossWorkers(t, func(workers int) (workerRun, error) {
		out, err := RunRecycleSoak(RecycleConfig{Layout: farm.Layout{Seed: seed, Sharded: true, Workers: workers}, Profile: profile})
		if err != nil {
			return workerRun{}, err
		}
		t.Logf("workers=%d: cycles=%d faults=%d retries=%d quarantined=%d journal=%dB",
			workers, out.Cycles, out.FaultsInjected, out.Retries, out.Quarantines, len(out.Journal))
		return workerRun{journal: out.Journal, snapshot: out.Snapshot, problems: out.Problems}, nil
	})
}
