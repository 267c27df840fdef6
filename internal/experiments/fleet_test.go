package experiments

import (
	"testing"

	"gq/internal/farm"
)

// TestFleetLockdownSoak is the supervision tree's end-to-end proof, and
// its determinism proof in the same breath: three subfarms under the
// blackout profile — sink crashes, a controller hang, a recycler wedge,
// and a containment-server kill storm dense enough to quarantine alpha's
// whole plane — must recover every survivable fault through the tree,
// escalate the unsurvivable one through subfarm fail-closed lockdown to
// global dead-man lockdown, hold zero probe escapes before/during/after,
// and drain every flow table empty. Run sharded at 1, 2 and 4 workers:
// the NDJSON journal must be byte-identical, and the escalation record —
// the root's history and controller ladder and each subfarm node's
// escalation list, read from the supervisors that keep them — and each
// subfarm's health transitions as its journal records them DeepEqual:
// worker count only decides which OS thread runs a domain's window; it
// must never leak into escalation order.
func TestFleetLockdownSoak(t *testing.T) {
	const seed = 11

	assertSameAcrossWorkers(t, func(workers int) (workerRun, error) {
		out, err := RunFleetSoak(farm.Layout{Seed: seed, Sharded: true, Workers: workers})
		if err != nil {
			return workerRun{}, err
		}
		t.Logf("workers=%d: globalAt=%v drops=%d rearms=%d cycles=%d journal=%dB",
			workers, out.GlobalLockdownAt, out.LockdownDrops,
			out.Rearms, out.Cycles, len(out.Journal))
		escalations := map[string][]string{
			"root":            out.Tree.History(),
			"root.controller": out.Tree.ControllerHistory(),
		}
		health := map[string][]string{}
		for _, sf := range out.Subfarms {
			escalations[sf.Name] = sf.Supervisor.History()
			health[sf.Name] = healthTransitions(out.Journal, sf.Name)
		}
		return workerRun{
			journal: out.Journal, snapshot: out.Snapshot, problems: out.Problems,
			records: map[string]any{
				"escalation record":         escalations,
				"health-transition history": health,
			},
		}, nil
	})
}

// TestFleetSoakSerial pins the unsharded farm: the same ladder must run
// on a single root domain (no cross-domain hops at all) and still satisfy
// every fleet invariant.
func TestFleetSoakSerial(t *testing.T) {
	out, err := RunFleetSoak(farm.Layout{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range out.Problems {
		t.Error(problem)
	}
}
