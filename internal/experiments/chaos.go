package experiments

import (
	"bytes"
	"fmt"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/policy"
	"gq/internal/report"
	"gq/internal/smtpx"
	"gq/internal/supervisor"
	"gq/internal/trace"
)

// ChaosConfig parameterises the chaos soak: the Botfarm demo run under an
// injected fault profile.
type ChaosConfig struct {
	Seed    int64
	Profile chaos.Profile
	// Duration is the fault window (default 20 virtual minutes). A
	// containment probe (2 min) and a drain window long enough for every
	// sweep timeout to elapse run after it.
	Duration time.Duration

	// Sharded builds the farm with per-subfarm simulation domains driven by
	// Workers goroutines (0 = GOMAXPROCS). A sharded run's journal is
	// byte-identical across worker counts for a given seed, though not to
	// the serial run's (the trunk lookahead latency shifts event timing).
	Sharded bool
	Workers int

	// ContainmentServers sizes the subfarm's containment cluster (0 = 1,
	// the single-server Botfarm baseline).
	ContainmentServers int

	// Supervise attaches the containment-plane supervisor (default config):
	// heartbeat health tracking, healthy-subset dispatch, fail-closed
	// eviction of flows stranded on dead servers, and supervised restart.
	// A supervised run's chaos injector does NOT restore crashed servers —
	// recovery is the supervisor's job, and the soak measures it.
	Supervise bool

	// WrapSink, when set, interposes on the journal sink chain: it
	// receives the NDJSON sink the soak attaches and its return value is
	// installed in its place. The ops plane uses this to splice in an
	// obs.Fanout so live subscribers ride along without touching the
	// recorded stream.
	WrapSink func(obs.Sink) obs.Sink

	// OnBuild runs once the farm is fully built (subfarm, inmates) and
	// before the fault profile applies — the hook point for attaching
	// observers such as a served ops plane.
	OnBuild func(*farm.Farm, *farm.Subfarm)
}

// ChaosOutcome reports the run and the resilience-invariant checks.
type ChaosOutcome struct {
	Farm     *farm.Farm
	Subfarm  *farm.Subfarm
	Injector *chaos.Injector
	Probe    *farm.ProbeOutcome
	// FacadeEcho is the blocking-facade self-test pair that ran inside the
	// habitat for the whole soak; its round trips are part of the journal.
	FacadeEcho *farm.FacadeEcho

	// Journal is the full NDJSON event stream; byte-identical across runs
	// with the same (seed, profile) — the determinism proof.
	Journal []byte

	// Snapshot is the final metrics snapshot; identical across runs with the
	// same (seed, profile, sharding mode) regardless of worker count.
	Snapshot *obs.Snapshot

	FlowsCreated, Verdicts uint64
	FlowsFailClosed        uint64
	ActiveFlows            int
	CrashEventsRecorded    int

	// Supervisor is set on supervised runs, along with the per-endpoint
	// health-transition history (part of the determinism surface: it must
	// match exactly across worker counts for a given seed).
	Supervisor    *supervisor.Supervisor
	HealthHistory map[string][]string

	// Problems lists every violated invariant; empty means the farm
	// degraded gracefully.
	Problems []string
}

// RunChaosSoak builds the Botfarm demo, applies the fault profile, runs it
// through the fault window plus a containment probe, then stops injection,
// drains, and checks the resilience invariants: the flow table returns to
// empty, no probe traffic escapes, the trace-derived flow/verdict totals
// match the registry exactly, and the chaos flight recorder captured every
// injected containment-server crash.
func RunChaosSoak(cfg ChaosConfig) (*ChaosOutcome, error) {
	if cfg.Duration == 0 {
		cfg.Duration = 20 * time.Minute
	}
	f := newSoakFarm(cfg.Seed, cfg.Sharded, cfg.Workers, 0)
	if cfg.WrapSink != nil {
		f.Sim.Obs().Journal.SetSink(cfg.WrapSink(f.sink))
	}
	if err := addSteephost(f.Farm); err != nil {
		return nil, err
	}

	policyText := "[VLAN 16-17]\n" +
		"Decider = Rustock\nInfection = rustock.100921.*.exe\n\n" +
		"[VLAN 18-19]\n" +
		"Decider = Grum\nInfection = grum.100818.*.exe\n\n" +
		"[VLAN 16-19]\n" +
		"Trigger = *:25/tcp / 30min < 1 -> revert\n"

	sf, err := f.AddSubfarm(farm.SubfarmConfig{
		Name:   "Botfarm",
		VLANLo: 16, VLANHi: 24,
		ServiceVLAN:  11,
		GlobalPool:   netstack.MustParsePrefix("192.0.2.0/24"),
		InfraPool:    netstack.MustParsePrefix("192.0.9.0/24"),
		PolicyConfig: policyText,
		SampleLibrary: []*policy.Sample{
			rustockSample(),
			policy.NewSample("grum.100818.001.exe", "grum", []byte("MZ-grum-1")),
		},
		RepeatBatches: true,
		CCHosts: map[string]policy.AddrPort{
			"Rustock": {Addr: steephostAddr, Port: 443},
			"Grum":    {Addr: steephostAddr, Port: 80},
		},
		SinkDropProb:       0.2,
		SinkStrictness:     smtpx.Lenient,
		ContainmentServers: cfg.ContainmentServers,
	})
	if err != nil {
		return nil, err
	}
	out := &ChaosOutcome{Farm: f.Farm, Subfarm: sf}
	// The facade self-test pair exercises the blocking net.Conn bridge
	// inside the habitat (sharded or not), putting its proc rendezvous on
	// the journal's byte-determinism surface.
	out.FacadeEcho = sf.AttachFacadeEcho(30*time.Second, 0)
	if cfg.Supervise {
		out.Supervisor = sf.Supervise(supervisor.Config{})
	}

	// Independent ground truth: record the subfarm tap as pcap bytes and
	// re-derive flow/verdict totals from them afterwards.
	var pcap bytes.Buffer
	tw := trace.NewWriter(&pcap)
	var traceErr error
	sf.Router.AddTap(func(p *netstack.Packet) {
		// The tap fires in the router's domain; stamp with that domain's
		// clock (identical to the farm clock when not sharded).
		if err := tw.WritePacket(sf.Sim.WallClock(), p.Marshal()); err != nil && traceErr == nil {
			traceErr = err
		}
	})

	// VLANs 16/17 rustock, 18/19 grum (AddInmate allocates in order).
	for i := 0; i < 4; i++ {
		if _, err := sf.AddInmate(fmt.Sprintf("bot-%d", i)); err != nil {
			return nil, err
		}
	}

	if cfg.OnBuild != nil {
		cfg.OnBuild(f.Farm, sf)
	}

	out.Injector = chaos.Apply(sf, cfg.Profile)

	f.Run(cfg.Duration)

	// Containment probe while impairment is still active: the probe inmate
	// joins after Apply, so its own link is clean, but containment itself
	// (gateway + possibly crashed/stalled CS) is under chaos.
	probe, err := farm.RunContainmentProbe(f.Farm, sf, nil, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	out.Probe = probe

	// Wind down: a healthy farm ends with an empty flow table.
	if out.Journal, err = f.windDown([]*chaos.Injector{out.Injector}); err != nil {
		return nil, err
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	if traceErr != nil {
		return nil, traceErr
	}

	// --- Invariant checks ---
	inv := (*problems)(&out.Problems)
	bad := inv.bad
	inv.commonInvariants(sf, probe)
	out.ActiveFlows = sf.Router.ActiveFlows()

	recs, err := trace.Read(bytes.NewReader(pcap.Bytes()))
	if err != nil {
		return nil, err
	}
	csIPs := make([]netstack.Addr, 0, len(sf.CSCluster))
	for _, srv := range sf.CSCluster {
		csIPs = append(csIPs, srv.Host.Addr())
	}
	audit := report.AuditTrace(recs, farm.ContainmentPort, csIPs...)
	snap := f.Sim.Obs().Snapshot()
	out.Snapshot = snap
	out.FlowsCreated = snap.Counter("subfarm.Botfarm.flows_created")
	out.Verdicts = snap.Counter("subfarm.Botfarm.verdicts_applied")
	out.FlowsFailClosed = snap.Counter("subfarm.Botfarm.flows_failclosed")
	if out.FlowsCreated == 0 {
		bad("no flows created — chaos run produced no traffic")
	}
	if out.FacadeEcho.Rounds == 0 {
		bad("facade echo pair completed no round trips (%d errors) — the blocking "+
			"bridge wedged under chaos", out.FacadeEcho.Errors)
	}
	if audit.FlowsCreated != out.FlowsCreated {
		bad("telemetry drift: trace derives %d flows, registry counted %d",
			audit.FlowsCreated, out.FlowsCreated)
	}
	if audit.Verdicts != out.Verdicts {
		bad("telemetry drift: trace derives %d verdicts, registry counted %d",
			audit.Verdicts, out.Verdicts)
	}
	if problems := f.Reporter(false).CrossCheck(); len(problems) != 0 {
		bad("reporter cross-check: %v", problems)
	}

	// The chaos scope's flight recorder must have captured every injected
	// CS crash (and the profile must actually have fired them all).
	if want := len(cfg.Profile.CSCrashAt); out.Injector.Crashes != want {
		bad("injected %d CS crashes, profile scheduled %d", out.Injector.Crashes, want)
	}
	if d := f.Sim.Obs().Journal.DumpScope(chaos.ScopeFor(sf.Name), "chaos soak post-run"); d != nil {
		for _, e := range d.Events {
			if e.Type == chaos.EvCSCrash {
				out.CrashEventsRecorded++
			}
		}
	}
	if out.CrashEventsRecorded != out.Injector.Crashes {
		bad("flight recorder captured %d of %d CS crashes",
			out.CrashEventsRecorded, out.Injector.Crashes)
	}

	if out.Supervisor != nil {
		out.HealthHistory = out.Supervisor.HealthHistory()
		// The supervisor — not the injector, which skips its restores on
		// supervised runs — must have brought every crashed server back.
		for i := range sf.CSCluster {
			if out.Supervisor.Quarantined(i) {
				bad("cs%d quarantined by circuit breaker — kill schedule within the "+
					"breaker budget must not trip it", i)
			} else if !out.Supervisor.Healthy(i) {
				bad("cs%d still unhealthy after drain — supervised restart failed", i)
			}
		}
		if got, want := len(out.Supervisor.Recoveries), out.Injector.Crashes; got != want {
			bad("supervisor recovered %d of %d CS crashes", got, want)
		}
	}

	return out, nil
}
