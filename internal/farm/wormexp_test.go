package farm

import (
	"testing"
	"time"

	"gq/internal/malware"
	"gq/internal/report"
	"gq/internal/shim"
)

func korgoSpec(t *testing.T) malware.WormSpec {
	t.Helper()
	for _, w := range malware.Table1 {
		if w.Name == "W32.Korgo.V" && w.Events == 102 {
			return w
		}
	}
	t.Fatal("spec not found")
	return malware.WormSpec{}
}

func TestWormExperimentChainInfection(t *testing.T) {
	spec := korgoSpec(t) // 2 conns, 6.0s incubation
	e, err := NewWormExperiment(5, spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Let the honeypots boot and acquire leases, then seed.
	e.Farm.Run(30 * time.Second)
	e.Seed()
	e.Farm.Run(10 * time.Minute)

	res := e.Result()
	if res.Events < 2 {
		t.Fatalf("only %d infections; chain never formed (%+v)", res.Events, e.Infections)
	}
	// Incubation shape: a fast Korgo should re-propagate within seconds to
	// tens of seconds, not minutes.
	if res.Incubation <= 0 || res.Incubation > 90*time.Second {
		t.Fatalf("measured incubation %v for spec %v", res.Incubation, spec.Incubation)
	}

	// Containment held: every outbound propagation was REDIRECTed inside
	// the farm, never FORWARDed.
	outbound := func(v shim.Verdict) func(report.FlowClass) bool {
		return func(c report.FlowClass) bool { return !c.Inbound && c.Verdict.Has(v) }
	}
	redirects := e.Farm.Fold.Flows(e.Subfarm.Name, outbound(shim.Redirect))
	forwards := e.Farm.Fold.Flows(e.Subfarm.Name, outbound(shim.Forward))
	if redirects == 0 {
		t.Fatal("no redirected propagation attempts")
	}
	if forwards != 0 {
		t.Fatalf("%d worm flows escaped via FORWARD", forwards)
	}
}

func TestWormExperimentSlowFamilyShape(t *testing.T) {
	// A slow Spybot (57s) must measure slower than a fast Korgo (6s) —
	// the Table 1 ordering is preserved.
	var spybot malware.WormSpec
	for _, w := range malware.Table1 {
		if w.Executable == "MsUpdaters.exe" {
			spybot = w
		}
	}
	fast, err := NewWormExperiment(3, korgoSpec(t), 3)
	if err != nil {
		t.Fatal(err)
	}
	fast.Farm.Run(30 * time.Second)
	fast.Seed()
	fast.Farm.Run(15 * time.Minute)

	slow, err := NewWormExperiment(3, spybot, 3)
	if err != nil {
		t.Fatal(err)
	}
	slow.Farm.Run(30 * time.Second)
	slow.Seed()
	slow.Farm.Run(15 * time.Minute)

	fr, sr := fast.Result(), slow.Result()
	if fr.Events < 2 || sr.Events < 2 {
		t.Fatalf("events fast=%d slow=%d", fr.Events, sr.Events)
	}
	if fr.Incubation >= sr.Incubation {
		t.Fatalf("incubation ordering violated: Korgo %v vs Spybot %v",
			fr.Incubation, sr.Incubation)
	}
	// Faster worms accumulate more events in the same window.
	if fr.Events <= sr.Events {
		t.Fatalf("event ordering violated: Korgo %d vs Spybot %d", fr.Events, sr.Events)
	}
}
