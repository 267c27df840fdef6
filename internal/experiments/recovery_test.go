package experiments

import (
	"testing"

	"gq/internal/farm"
)

// TestRecoverySoak runs the supervised kill-storm soak on the pinned chaos
// seeds: six containment-server kills across a 3-member cluster, each of
// which must be detected by missed heartbeats, failed over (stranded flows
// fail closed, new flows rendezvous onto the healthy subset), and repaired
// by a supervised restart within the recovery bound — all with zero probe
// escapes and an empty flow table after drain.
func TestRecoverySoak(t *testing.T) {
	for _, seed := range chaosSeeds {
		for _, workers := range []int{1, 4} {
			out, err := RunRecoverySoak(farm.Layout{Seed: seed, Sharded: true, Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			for _, problem := range out.Problems {
				t.Errorf("seed %d workers %d: %s", seed, workers, problem)
			}
			if len(out.Recoveries) == 0 {
				t.Errorf("seed %d workers %d: no recoveries measured — kill storm never fired?", seed, workers)
			}
			t.Logf("seed %d workers %d: flows=%d verdicts=%d failclosed=%d crashes=%d recoveries=%v max=%v probe=[%s]",
				seed, workers, out.FlowsCreated, out.Verdicts, out.Snapshot.Counter("subfarm.Botfarm.flows_failclosed"),
				out.Injectors[0].Crashes, out.Recoveries, out.MaxObserved, out.Probes[0][0])
		}
	}
}

// TestRecoverySoakDeterminism re-proves the sharding guarantee under
// supervision and failover: one pinned seed at 1, 2 and 4 workers must
// yield byte-identical journals, identical recovery intervals, and
// identical health-transition histories.
func TestRecoverySoakDeterminism(t *testing.T) {
	const seed = 7
	assertSameAcrossWorkers(t, func(workers int) (workerRun, error) {
		out, err := RunRecoverySoak(farm.Layout{Seed: seed, Sharded: true, Workers: workers})
		if err != nil {
			return workerRun{}, err
		}
		return workerRun{
			journal: out.Journal, snapshot: out.Snapshot, problems: out.Problems,
			records: map[string]any{
				"recovery intervals":        out.Recoveries,
				"health-transition history": healthTransitions(out.Journal, out.Subfarms[0].Name),
			},
		}, nil
	})
}
