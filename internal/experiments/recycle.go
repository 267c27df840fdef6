package experiments

import (
	"bytes"
	"fmt"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/obs"
	"gq/internal/rawiron"
)

// RecycleConfig parameterises the recycling soak: several subfarms of
// raw-iron inmates cycling detonate → capture → reimage → re-admit under a
// reimage-fault chaos profile.
type RecycleConfig struct {
	Seed    int64
	Profile chaos.Profile

	// Subfarms and Machines size the farm: Subfarms independent habitats,
	// each with a raw-iron pool of Machines boxes on a shared PXE/TFTP
	// trunk (defaults 3 × 3).
	Subfarms int
	Machines int

	// Duration is the recycling window (default 2 virtual hours). After it
	// the recyclers and fault injection stop, Settle (default 30 min) lets
	// in-flight captures/reimages retry to completion, then a containment
	// probe and a final drain run per subfarm.
	Duration time.Duration
	Settle   time.Duration

	// DetonateFor is each specimen's execution window (default 5 min — the
	// soak compresses the paper's cadence to fit many cycles per run).
	DetonateFor time.Duration

	// MinCycles is the whole-farm completed-cycle floor the soak enforces;
	// MinCyclesPerSubfarm guards against one habitat silently stalling
	// while others carry the total (defaults 20 and 4).
	MinCycles           int
	MinCyclesPerSubfarm int

	// Sharded builds the farm with per-subfarm simulation domains driven
	// by Workers goroutines (0 = GOMAXPROCS). As with the chaos soak, a
	// sharded run's journal is byte-identical across worker counts.
	Sharded bool
	Workers int
}

func (cfg RecycleConfig) withDefaults() RecycleConfig {
	if cfg.Subfarms == 0 {
		cfg.Subfarms = 3
	}
	if cfg.Machines == 0 {
		cfg.Machines = 3
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Hour
	}
	if cfg.Settle == 0 {
		cfg.Settle = 30 * time.Minute
	}
	if cfg.DetonateFor == 0 {
		cfg.DetonateFor = 5 * time.Minute
	}
	if cfg.MinCycles == 0 {
		cfg.MinCycles = 20
	}
	if cfg.MinCyclesPerSubfarm == 0 {
		cfg.MinCyclesPerSubfarm = 4
	}
	return cfg
}

// RecycleOutcome reports the run and the lifecycle-invariant checks.
type RecycleOutcome struct {
	Farm      *farm.Farm
	Subfarms  []*farm.Subfarm
	Injectors []*chaos.Injector
	Probes    []*farm.ProbeOutcome

	// Journal is the full NDJSON stream; byte-identical across runs with
	// the same (seed, profile) at any worker count.
	Journal  []byte
	Snapshot *obs.Snapshot

	// Farm-wide lifecycle accounting, summed over every subfarm's
	// raw-iron controller and recycler.
	Cycles, Lost                   int
	Reimages, Captures             int
	Failures, Retries, Quarantines int
	FaultsInjected                 int

	// SpecimensPerDay is the sustained recycling throughput: completed
	// cycles scaled to a 24-hour day over the soak's active window.
	SpecimensPerDay float64

	// Problems lists every violated invariant; empty means the pipeline
	// sustained its cadence with no wedged machines and no escapes.
	Problems []string
}

// RunRecycleSoak builds Subfarms habitats of raw-iron inmates, runs their
// recycling pipelines under the reimage-fault profile for Duration, then
// stops injection, settles, probes containment, and drains. It checks the
// lifecycle invariants: the cycle floors hold, every injected fault was
// retried or breaker-quarantined (no machine left busy or in a non-terminal
// state), members lost from rotation match breaker trips exactly, counters
// reconcile with the controllers' own accounting, no probe traffic escapes,
// and every flow table drains empty.
func RunRecycleSoak(cfg RecycleConfig) (*RecycleOutcome, error) {
	cfg = cfg.withDefaults()
	f := newSoakFarm(cfg.Seed, cfg.Sharded, cfg.Workers, 0)
	out := &RecycleOutcome{Farm: f.Farm}
	if err := addSteephost(f.Farm); err != nil {
		return nil, err
	}

	recyclers := make([]*farm.Recycler, 0, cfg.Subfarms)
	for i := 0; i < cfg.Subfarms; i++ {
		sf, err := f.AddSubfarm(rustockSubfarm(fmt.Sprintf("Iron%d", i), i, cfg.Machines))
		if err != nil {
			return nil, err
		}
		out.Subfarms = append(out.Subfarms, sf)

		// Two concurrent netboots per subfarm: the third box queues, so the
		// soak exercises the FIFO slot path alongside trunk contention.
		rec, err := sf.StartIronRotation(cfg.Machines, rawiron.Config{MaxConcurrent: 2},
			farm.RecyclerConfig{DetonateFor: cfg.DetonateFor, Capture: true})
		if err != nil {
			return nil, err
		}
		recyclers = append(recyclers, rec)
	}

	if cfg.Profile.Name != "" {
		for _, sf := range out.Subfarms {
			out.Injectors = append(out.Injectors, chaos.Apply(sf, cfg.Profile))
		}
	}

	f.Run(cfg.Duration)

	// Wind down in dependency order: recyclers stop opening detonation
	// windows, injection stops (future retries run fault-free), and the
	// settle window lets every in-flight capture/reimage — including ones
	// mid-backoff — reach a terminal state.
	for _, rec := range recyclers {
		rec.Stop()
	}
	for _, inj := range out.Injectors {
		inj.Stop()
	}
	f.Run(cfg.Settle)

	for _, sf := range out.Subfarms {
		probe, err := farm.RunContainmentProbe(f.Farm, sf, nil, 2*time.Minute)
		if err != nil {
			return nil, err
		}
		out.Probes = append(out.Probes, probe)
	}

	// Injection stopped before the settle window; only the specimens and
	// the drain are left.
	var err error
	if out.Journal, err = f.windDown(nil); err != nil {
		return nil, err
	}

	// --- Invariant checks ---
	inv := (*problems)(&out.Problems)
	bad := inv.bad

	for i, sf := range out.Subfarms {
		rec, ri := recyclers[i], sf.RawIron
		out.Cycles += rec.Cycles
		out.Lost += rec.Lost
		out.Reimages += ri.Reimages
		out.Captures += ri.Captures
		out.Failures += ri.Failures
		out.Retries += ri.Retries
		out.Quarantines += ri.Quarantines
		out.FaultsInjected += ri.FaultsInjected

		if rec.Cycles < cfg.MinCyclesPerSubfarm {
			bad("%s completed %d cycles, want >= %d — the habitat's pipeline stalled",
				sf.Name, rec.Cycles, cfg.MinCyclesPerSubfarm)
		}
		// Supervision invariant: every fault path ends terminal. A busy
		// machine after the settle window is a wedged state machine; any
		// state but Running/Quarantined is a transition that never landed.
		for _, m := range ri.Machines() {
			if m.Busy() {
				bad("%s machine %s still busy after settle (state %v)", sf.Name, m.Name, m.State)
			}
			if m.State != rawiron.Running && m.State != rawiron.Quarantined {
				bad("%s machine %s in non-terminal state %v", sf.Name, m.Name, m.State)
			}
		}
		// Every failure is either a retry or a breaker trip, and every
		// trip dropped exactly one member from rotation.
		if ri.Failures != ri.Retries+ri.Quarantines {
			bad("%s failure accounting drift: %d failures != %d retries + %d quarantines",
				sf.Name, ri.Failures, ri.Retries, ri.Quarantines)
		}
		if rec.Lost != ri.Quarantines {
			bad("%s lost %d members but breaker tripped %d times", sf.Name, rec.Lost, ri.Quarantines)
		}
		inv.commonInvariants(sf, out.Probes[i])
	}

	if out.Cycles < cfg.MinCycles {
		bad("farm completed %d cycles, want >= %d", out.Cycles, cfg.MinCycles)
	}
	if cfg.Profile.ReimageFaultsActive() {
		if out.FaultsInjected == 0 {
			bad("reimage-fault profile active but no faults injected")
		}
		// The pipeline rolls at most one fault per attempt and every
		// injected fault fails that attempt; nominal timings never miss a
		// deadline on their own, so the two counts must agree exactly.
		if out.Failures != out.FaultsInjected {
			bad("fault accounting drift: %d injected faults but %d attempt failures",
				out.FaultsInjected, out.Failures)
		}
	}

	snap := f.Sim.Obs().Snapshot()
	out.Snapshot = snap
	if got := snap.Counter("rawiron.retries"); got != uint64(out.Retries) {
		bad("telemetry drift: rawiron.retries counter %d, controllers counted %d", got, out.Retries)
	}
	if got := snap.Counter("rawiron.quarantined"); got != uint64(out.Quarantines) {
		bad("telemetry drift: rawiron.quarantined counter %d, controllers counted %d", got, out.Quarantines)
	}
	if got := snap.Counter("rawiron.faults_injected"); got != uint64(out.FaultsInjected) {
		bad("telemetry drift: rawiron.faults_injected counter %d, controllers counted %d", got, out.FaultsInjected)
	}
	if got := snap.Counter("lifecycle.recycled"); got != uint64(out.Cycles) {
		bad("telemetry drift: lifecycle.recycled counter %d, recyclers counted %d", got, out.Cycles)
	}
	// The journal must carry the same story the counters tell: one
	// recycled event per completed cycle, one retry event per retry.
	if got := bytes.Count(out.Journal, []byte(`"type":"lifecycle.recycled"`)); got != out.Cycles {
		bad("journal drift: %d lifecycle.recycled events, recyclers counted %d", got, out.Cycles)
	}
	if got := bytes.Count(out.Journal, []byte(`"type":"rawiron.retry"`)); got != out.Retries {
		bad("journal drift: %d rawiron.retry events, controllers counted %d", got, out.Retries)
	}
	if problems := f.Reporter(false).CrossCheck(); len(problems) != 0 {
		bad("reporter cross-check: %v", problems)
	}

	active := cfg.Duration + cfg.Settle
	out.SpecimensPerDay = float64(out.Cycles) * float64(24*time.Hour) / float64(active)
	return out, nil
}
