package gq_test

// Virtual-time results that are deterministic per seed, asserted exactly: a
// change that moves one of them has changed what the farm does, not how fast
// the host runs it.

import (
	"testing"
	"time"

	"gq/internal/experiments"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/supervisor"
)

// TestSupervisorRecoveryTime pins the supervised containment plane's
// crash-to-healthy turnaround: a containment server is shut down cold and
// the supervisor must detect it by missed heartbeats, fail the stranded
// flows closed, restart the server, and confirm health with a live echo.
func TestSupervisorRecoveryTime(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := farm.New(seed)
		sf, err := f.AddSubfarm(farm.SubfarmConfig{
			Name: "sup", VLANLo: 16, VLANHi: 20,
			GlobalPool:     netstack.MustParsePrefix("192.0.2.0/24"),
			FallbackPolicy: "DefaultDeny",
		})
		if err != nil {
			t.Fatal(err)
		}
		f.SuperviseTree(supervisor.Config{})
		sup := sf.Supervisor
		f.Run(30 * time.Second)
		sf.CS.Host.Shutdown()
		f.Run(2 * time.Minute)
		if len(sup.Recoveries) != 1 {
			t.Fatalf("seed %d: recoveries = %v, want exactly one", seed, sup.Recoveries)
		}
		if got := sup.Recoveries[0]; got != 9*time.Second+400*time.Microsecond {
			t.Errorf("seed %d: crash-to-healthy in %v, want 9.0004s", seed, got)
		}
	}
}

// TestLockdownEscalationTime pins the supervision tree's dead-man
// turnaround: both containment servers of a supervised subfarm are killed
// past the circuit breaker, and the tree must quarantine the plane, fail
// the subfarm closed after LockdownBudget, and escalate to global dead-man
// lockdown after DeadManBudget.
func TestLockdownEscalationTime(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		f := farm.New(seed)
		sf, err := f.AddSubfarm(farm.SubfarmConfig{
			Name: "dm", VLANLo: 16, VLANHi: 20,
			GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
			FallbackPolicy:     "DefaultDeny",
			ContainmentServers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		tree := f.SuperviseTree(supervisor.Config{
			BreakerThreshold: 1,
			LockdownBudget:   30 * time.Second,
			DeadManBudget:    time.Minute,
		})
		f.Run(30 * time.Second)
		// First kill round: survivable, the supervisor restarts both.
		for _, srv := range sf.CSCluster {
			srv.Host.Shutdown()
		}
		f.Run(2 * time.Minute)
		// Second kill round: past the breaker — the whole plane
		// quarantines and the escalation ladder runs to the top.
		for _, srv := range sf.CSCluster {
			srv.Host.Shutdown()
		}
		killAt := f.Sim.Now()
		f.Run(5 * time.Minute)
		if !tree.GlobalLockedDown() {
			t.Fatalf("seed %d: ladder never reached global lockdown", seed)
		}
		if got := tree.GlobalLockdownAt() - killAt; got != 101*time.Second {
			t.Errorf("seed %d: kill to global lockdown in %v, want 1m41s", seed, got)
		}
	}
}

// TestRecyclePipelineThroughput pins the raw-iron recycling pipeline's
// sustained throughput: one subfarm of three boxes cycling detonate →
// capture → reimage → re-admit, fault-free, bounded by the shared PXE/TFTP
// trunk. The paper's cadence is 48 specimens a day.
func TestRecyclePipelineThroughput(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		const duration, settle = 45 * time.Minute, 15 * time.Minute
		out, err := experiments.RunRecycleSoak(experiments.RecycleConfig{
			Layout:   farm.Layout{Seed: seed},
			Subfarms: 1, Machines: 3,
			Duration: duration, Settle: settle,
			DetonateFor: 5 * time.Minute,
			MinCycles:   1, MinCyclesPerSubfarm: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, problem := range out.Problems {
			t.Errorf("seed %d: %s", seed, problem)
		}
		// Completed cycles scaled to a day over the soak's active window.
		if perDay := float64(out.Cycles) * float64(24*time.Hour) / float64(duration+settle); perDay != 120 {
			t.Errorf("seed %d: %v specimens/day, want 120 (the paper's cadence is 48)", seed, perDay)
		}
	}
}
