package experiments

import (
	"bytes"
	"fmt"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/rawiron"
)

// RecycleConfig parameterises the recycling soak: several subfarms of
// raw-iron inmates cycling detonate → capture → reimage → re-admit under a
// reimage-fault chaos profile.
type RecycleConfig struct {
	// Layout places the simulation; as with the chaos soak, a sharded
	// run's journal is byte-identical across worker counts.
	farm.Layout
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
	// Run carries the farm, one injector and one probe per subfarm, and
	// Problems: every violated invariant; empty means the pipeline
	// sustained its cadence with no wedged machines and no escapes.
	*Run

	// Journal is the full NDJSON stream; byte-identical across runs with
	// the same (seed, profile) at any worker count.
	Journal []byte

	// Farm-wide lifecycle accounting, summed over every subfarm's
	// raw-iron controller and recycler.
	Cycles                         int
	Failures, Retries, Quarantines int
	FaultsInjected                 int
}

// RunRecycleSoak builds Subfarms habitats of raw-iron inmates, runs their
// recycling pipelines under the reimage-fault profile for Duration, then
// stops injection, settles, probes containment, and drains. On top of the
// shared invariants (Run.check) it checks the lifecycle ones: the cycle
// floors hold, every injected fault was retried or breaker-quarantined (no
// machine left busy or in a non-terminal state), members lost from rotation
// match breaker trips exactly, and counters reconcile with the controllers'
// own accounting.
func RunRecycleSoak(cfg RecycleConfig) (*RecycleOutcome, error) {
	cfg = cfg.withDefaults()
	var journal bytes.Buffer
	plan := Plan{
		Spec: farm.Spec{
			Layout: cfg.Layout, Journal: &journal,
			External: []farm.ExternalHost{farm.Steephost("steephost")},
		},
		// Wind down in dependency order: recyclers stop opening detonation
		// windows, injection stops (future retries run fault-free), and the
		// settle window lets every in-flight capture/reimage — including
		// ones mid-backoff — reach a terminal state before the probes.
		Phases: []Phase{Faults, RunFor(cfg.Duration), StopRotations, StopFaults, RunFor(cfg.Settle), ProbeRound(nil)},
		Drain:  SoakDrain,
	}
	for i := 0; i < cfg.Subfarms; i++ {
		sf := rustockSubfarm(fmt.Sprintf("Iron%d", i), i, cfg.Machines)
		// Two concurrent netboots per subfarm: the third box queues, so the
		// soak exercises the FIFO slot path alongside trunk contention.
		sf.Iron = cfg.Machines
		sf.IronCycle = farm.RecyclerConfig{DetonateFor: cfg.DetonateFor, Capture: true}
		plan.Spec.Subfarms = append(plan.Spec.Subfarms, sf)
		if cfg.Profile.Name != "" {
			plan.Faults = append(plan.Faults, cfg.Profile)
		}
	}
	r, err := Execute(plan)
	if err != nil {
		return nil, err
	}
	out := &RecycleOutcome{Run: r, Journal: journal.Bytes()}
	bad := r.bad

	for _, sf := range r.Subfarms {
		rec, ri := sf.Recycler, sf.RawIron
		out.Cycles += rec.Cycles
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

	snap := r.Snapshot
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
	if problems := r.Reporter(false).CrossCheck(); len(problems) != 0 {
		bad("reporter cross-check: %v", problems)
	}
	return out, nil
}
