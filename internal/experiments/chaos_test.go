package experiments

import (
	"bytes"
	"testing"

	"gq/internal/chaos"
	"gq/internal/farm"
)

// chaosSeeds are the pinned seeds `make chaos` exercises. Two seeds guard
// against a fault schedule that only happens to pass for one RNG stream.
var chaosSeeds = []int64{7, 1031}

// TestChaosSoak runs the Botfarm demo under the "soak" fault profile —
// ≥5% loss, reordering, duplication, corruption, link flaps, a scheduled
// containment-server crash, a verdict-stall window, and a sink outage —
// and demands graceful degradation: the flow table drains to empty, no
// probe traffic escapes, the trace-derived telemetry stays exact, and the
// flight recorder holds every injected crash. Each seed runs twice and the
// two journals must be byte-identical (determinism proof).
func TestChaosSoak(t *testing.T) {
	profile, err := chaos.Parse("soak")
	if err != nil {
		t.Fatal(err)
	}
	if profile.Loss < 0.05 {
		t.Fatalf("soak preset lost its ≥5%% loss floor: %v", profile.Loss)
	}
	for _, seed := range chaosSeeds {
		first := runChaosOnce(t, seed, profile)
		second := runChaosOnce(t, seed, profile)
		if !bytes.Equal(first, second) {
			t.Errorf("seed %d: journals differ between identical runs (%d vs %d bytes) — fault injection is not deterministic",
				seed, len(first), len(second))
		}
	}
}

func runChaosOnce(t *testing.T, seed int64, p chaos.Profile) []byte {
	t.Helper()
	out, err := RunChaosSoak(ChaosConfig{Layout: farm.Layout{Seed: seed}, Profile: p})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	for _, problem := range out.Problems {
		t.Errorf("seed %d: %s", seed, problem)
	}
	t.Logf("seed %d: flows=%d verdicts=%d crashes=%d probe=[%s] journal=%dB",
		seed, out.FlowsCreated, out.Verdicts, out.Injectors[0].Crashes, out.Probes[0][0], len(out.Journal))
	return out.Journal
}
