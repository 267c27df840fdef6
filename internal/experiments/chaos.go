package experiments

import (
	"bytes"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/report"
	"gq/internal/trace"
)

// chaosWindow is the chaos soak's fault window. A containment probe (2 min)
// and a drain window long enough for every sweep timeout to elapse run
// after it.
const chaosWindow = 20 * time.Minute

// ChaosConfig parameterises the chaos soak: the Botfarm demo run under an
// injected fault profile.
type ChaosConfig struct {
	// Layout places the simulation. A sharded run's journal is
	// byte-identical across worker counts for a given seed, though not to
	// the serial run's (the trunk lookahead latency shifts event timing).
	farm.Layout
	Profile chaos.Profile

	// ContainmentServers sizes the subfarm's containment cluster (0 = 1,
	// the single-server Botfarm baseline).
	ContainmentServers int

	// Supervise attaches the supervision tree (default config, DESIGN.md
	// §3f). A supervised run's chaos injector does NOT restore crashed
	// servers — recovery is the tree's job, and the soak measures it.
	Supervise bool
}

// ChaosOutcome reports the run and the resilience-invariant checks.
type ChaosOutcome struct {
	// Run carries the farm (one subfarm, supervised on supervised runs),
	// the injector (Injectors[0]), the probe (Probes[0][0]), the final
	// metrics snapshot and Problems: every violated invariant; empty means
	// the farm degraded gracefully.
	*Run

	// Journal is the full NDJSON event stream; byte-identical across runs
	// with the same (seed, profile) — the determinism proof. It includes
	// the round trips of the blocking-facade self-test pair
	// (Subfarm.FacadeEcho) that ran inside the habitat for the whole soak.
	Journal []byte

	FlowsCreated, Verdicts uint64
	CrashEventsRecorded    int
}

// ChaosPlan is the chaos soak as a plan: the Botfarm demo under the fault
// profile through the fault window plus a containment probe, then the
// wind-down. The ops plane's non-perturbation test runs it served.
func ChaosPlan(cfg ChaosConfig) Plan {
	// VLANs 16/17 rustock, 18/19 grum (inmates are added in order). The
	// facade self-test pair exercises the blocking net.Conn bridge inside
	// the habitat (sharded or not), putting its proc rendezvous on the
	// journal's byte-determinism surface.
	botfarm := farm.Botfarm()
	botfarm.PolicyConfig = farm.BotfarmPolicy(2, 2)
	botfarm.VLANLo, botfarm.VLANHi = 16, 24
	botfarm.SampleLibrary = farm.BotfarmSamples()
	botfarm.SinkDropProb = 0.2
	botfarm.ContainmentServers = cfg.ContainmentServers
	botfarm.Inmates = []string{"bot-0", "bot-1", "bot-2", "bot-3"}
	botfarm.FacadeEcho = 30 * time.Second
	plan := Plan{
		Spec: farm.Spec{
			Layout:   cfg.Layout,
			External: []farm.ExternalHost{farm.Steephost("steephost")},
			Subfarms: []farm.SubfarmSpec{botfarm},
		},
		Faults: []chaos.Profile{cfg.Profile},
		// The containment probe runs while impairment is still active: the
		// probe inmate joins after Faults, so its own link is clean, but
		// containment itself (gateway + possibly crashed/stalled CS) is
		// under chaos.
		Phases: []Phase{Faults, RunFor(chaosWindow), ProbeRound(nil)},
		Drain:  SoakDrain,
	}
	plan.Spec.Supervise = cfg.Supervise
	return plan
}

// RunChaosSoak executes ChaosPlan and checks the resilience invariants: the
// shared ones (Run.check), the trace-derived flow/verdict totals match the
// registry exactly, and the chaos flight recorder captured every injected
// containment-server crash.
func RunChaosSoak(cfg ChaosConfig) (*ChaosOutcome, error) {
	// Independent ground truth: record the subfarm tap as pcap bytes and
	// re-derive flow/verdict totals from them afterwards.
	var journal, pcap bytes.Buffer
	tw := trace.NewWriter(&pcap)
	plan := ChaosPlan(cfg)
	plan.Spec.Journal, plan.Spec.Subfarms[0].Trace = &journal, tw
	r, err := Execute(plan)
	if err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	sf, inj := r.Subfarms[0], r.Injectors[0]
	out := &ChaosOutcome{Run: r, Journal: journal.Bytes()}
	bad := r.bad

	recs, err := trace.Read(bytes.NewReader(pcap.Bytes()))
	if err != nil {
		return nil, err
	}
	csIPs := make([]netstack.Addr, 0, len(sf.CSCluster))
	for _, srv := range sf.CSCluster {
		csIPs = append(csIPs, srv.Host.Addr())
	}
	audit := report.AuditTrace(recs, farm.ContainmentPort, csIPs...)
	snap := r.Snapshot
	out.FlowsCreated = snap.Counter("subfarm.Botfarm.flows_created")
	out.Verdicts = snap.Counter("subfarm.Botfarm.verdicts_applied")
	if out.FlowsCreated == 0 {
		bad("no flows created — chaos run produced no traffic")
	}
	if sf.FacadeEcho.Rounds == 0 {
		bad("facade echo pair completed no round trips (%d errors) — the blocking "+
			"bridge wedged under chaos", sf.FacadeEcho.Errors)
	}
	if audit.FlowsCreated != out.FlowsCreated {
		bad("telemetry drift: trace derives %d flows, registry counted %d",
			audit.FlowsCreated, out.FlowsCreated)
	}
	if audit.Verdicts != out.Verdicts {
		bad("telemetry drift: trace derives %d verdicts, registry counted %d",
			audit.Verdicts, out.Verdicts)
	}
	if problems := r.Reporter(false).CrossCheck(); len(problems) != 0 {
		bad("reporter cross-check: %v", problems)
	}

	// The chaos scope's flight recorder must have captured every injected
	// CS crash (and the profile must actually have fired them all).
	r.crashesFired()
	if d := r.Sim.Obs().Journal.DumpScope(chaos.ScopeFor(sf.Name), "chaos soak post-run"); d != nil {
		for _, e := range d.Events {
			if e.Type == chaos.EvCSCrash {
				out.CrashEventsRecorded++
			}
		}
	}
	if out.CrashEventsRecorded != inj.Crashes {
		bad("flight recorder captured %d of %d CS crashes",
			out.CrashEventsRecorded, inj.Crashes)
	}

	if sup := sf.Supervisor; sup != nil {
		// The supervisor — not the injector, which skips its restores on
		// supervised runs — must have brought every crashed server back
		// (the shared check) without the breaker giving up on one.
		r.notQuarantined(sf)
		if got, want := len(sup.Recoveries), inj.Crashes; got != want {
			bad("supervisor recovered %d of %d CS crashes", got, want)
		}
	}

	return out, nil
}
