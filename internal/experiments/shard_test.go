package experiments

import (
	"testing"

	"gq/internal/chaos"
	"gq/internal/farm"
)

// TestShardDeterminism is the sharded farm's determinism proof: the full
// chaos soak — loss, reorder, duplication, corruption, flaps, CS crash,
// verdict stall, sink outage, containment probe — run supervised with
// per-subfarm simulation domains at 1, 2 and 4 workers must produce
// byte-identical NDJSON journals, identical metric snapshots, and identical
// per-endpoint health-transition histories. Worker count only decides which
// OS thread runs a domain's window; it must never leak into results.
func TestShardDeterminism(t *testing.T) {
	profile, err := chaos.Parse("soak")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7

	assertSameAcrossWorkers(t, func(workers int) (workerRun, error) {
		out, err := RunChaosSoak(ChaosConfig{
			Layout:  farm.Layout{Seed: seed, Sharded: true, Workers: workers},
			Profile: profile, Supervise: true,
		})
		if err != nil {
			return workerRun{}, err
		}
		health := healthTransitions(out.Journal, out.Subfarms[0].Name)
		t.Logf("workers=%d: flows=%d verdicts=%d crashes=%d failclosed=%d probe=[%s] journal=%dB health=%v",
			workers, out.FlowsCreated, out.Verdicts, out.Injectors[0].Crashes,
			out.Snapshot.Counter("subfarm.Botfarm.flows_failclosed"), out.Probes[0][0], len(out.Journal), health)
		return workerRun{
			journal: out.Journal, snapshot: out.Snapshot, problems: out.Problems,
			records: map[string]any{"health-transition history": health},
		}, nil
	})
}
