package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/rawiron"
	"gq/internal/supervisor"
)

// FleetConfig parameterises the fleet lockdown soak: three subfarms under
// the full supervision tree, each fed the blackout fault profile, with the
// first subfarm's containment plane killed hard enough that no supervised
// restart can save it — the run that proves the tree recovers every
// survivable fault and escalates the unsurvivable one all the way to
// global dead-man lockdown without a single probe escape.
type FleetConfig struct {
	Seed int64

	// Duration is the fault window (default 12 virtual minutes — long
	// enough for the alpha kill storm to quarantine all three of its
	// containment servers, the subfarm to fail closed, and the root's
	// dead-man budget to expire into global lockdown).
	Duration time.Duration

	// Sharded builds the farm with per-subfarm simulation domains driven
	// by Workers goroutines (0 = GOMAXPROCS); ExtShards > 1 additionally
	// spreads the external hosts over that many internet shards
	// (farm.NewShardedN). Journals are byte-identical across worker
	// counts for a fixed (Seed, ExtShards).
	Sharded   bool
	Workers   int
	ExtShards int
}

func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.Duration == 0 {
		cfg.Duration = 12 * time.Minute
	}
	return cfg
}

// fleetSupervision is the tree tuning the soak runs under: default
// heartbeat cadence, a two-restart circuit breaker (the third kill of any
// endpoint inside the window quarantines it), and compressed escalation
// budgets so the whole ladder — quarantine, subfarm lockdown, global
// dead-man — fits the fault window.
func fleetSupervision() supervisor.Config {
	return supervisor.Config{
		BreakerThreshold: 2,
		LockdownBudget:   45 * time.Second,
		DeadManBudget:    90 * time.Second,
		WedgeBudget:      3 * time.Minute,
	}
}

// Per-subfarm fault profiles. All three ride the blackout preset (link
// impairment, sink crashes, a controller hang, a recycler wedge); Alpha
// additionally overrides the containment-server kill schedule with a
// storm dense enough to put three kills on each of its three servers —
// past the two-restart breaker, so the whole plane quarantines.
const (
	fleetAlphaProfile = "blackout," +
		"cscrash=2m,cscrash=2m30s,cscrash=3m," +
		"cscrash=4m,cscrash=4m30s,cscrash=5m," +
		"cscrash=6m,cscrash=6m30s,cscrash=7m"
	fleetBetaProfile = "blackout"
	// Gamma staggers three wedge injections so the cancel catches every
	// rotation member in a timer-parked phase (members mid-reimage are
	// event-driven and immune to a single wedge).
	fleetGammaProfile = "blackout," +
		"recyclerwedge=4m30s,recyclerwedge=5m30s,recyclerwedge=6m30s"
)

// FleetOutcome reports the run, the escalation record, and the
// fleet-invariant checks.
type FleetOutcome struct {
	Farm      *farm.Farm
	Subfarms  []*farm.Subfarm
	Tree      *supervisor.Root
	Injectors []*chaos.Injector

	// Probes holds the containment probes per phase ("before", "during",
	// "after"), one per subfarm in subfarm order. Every single one must
	// come back with zero escapes.
	Probes map[string][]*farm.ProbeOutcome

	// Journal is the full NDJSON stream; byte-identical across runs with
	// the same (seed, shard layout) at any worker count.
	Journal  []byte
	Snapshot *obs.Snapshot

	// Escalations is the deterministic escalation record: the root's
	// history and controller ladder plus each subfarm node's escalation
	// list, keyed "root", "root.controller", and the subfarm names. It
	// must DeepEqual across worker counts.
	Escalations map[string][]string
	// Health is each subfarm node's per-endpoint health-transition
	// history — the same determinism surface, one level down.
	Health map[string]map[string][]string

	// GlobalLockdownAt is the sim time of the (latest) global dead-man
	// lockdown; zero means the ladder never reached the top.
	GlobalLockdownAt time.Duration

	LockdownDrops uint64 // packets the alpha gateway dropped while failed closed
	Rearms        uint64 // recycler re-arms performed by the root node
	Cycles        int    // gamma recycling cycles completed despite the wedge

	// Problems lists every violated invariant; empty means the tree held
	// the fleet together exactly as designed.
	Problems []string
}

// fleetSubfarm describes one habitat in the soak.
type fleetSubfarm struct {
	name    string
	vlanLo  uint16
	bots    int    // VM inmates (alpha/beta)
	iron    int    // raw-iron machines under a recycler (gamma)
	servers int    // containment cluster size
	profile string // chaos spec
}

// RunFleetSoak builds three supervised subfarms under one supervision
// tree, probes containment while healthy, runs the blackout fault window
// (containment kill storm on alpha, sink crashes and a controller hang
// everywhere, a recycler wedge on gamma), then proves the escalation
// ladder end to end: survivable faults recover through the tree, the
// unsurvivable alpha plane quarantines → fails closed → drags the root
// into global dead-man lockdown; probes during lockdown and after an
// operator release still cannot escape; and every flow table drains
// empty. The journal and escalation record are part of the determinism
// surface: byte-identical / DeepEqual at any worker count.
func RunFleetSoak(cfg FleetConfig) (*FleetOutcome, error) {
	cfg = cfg.withDefaults()
	f := newSoakFarm(cfg.Seed, cfg.Sharded, cfg.Workers, cfg.ExtShards)
	out := &FleetOutcome{
		Farm:        f.Farm,
		Probes:      make(map[string][]*farm.ProbeOutcome),
		Escalations: make(map[string][]string),
		Health:      make(map[string]map[string][]string),
	}

	if err := addSteephost(f.Farm); err != nil {
		return nil, err
	}

	plan := []fleetSubfarm{
		{name: "Alpha", vlanLo: 16, bots: 4, servers: 3, profile: fleetAlphaProfile},
		{name: "Beta", vlanLo: 32, bots: 4, servers: 2, profile: fleetBetaProfile},
		{name: "Gamma", vlanLo: 48, iron: 2, servers: 2, profile: fleetGammaProfile},
	}

	var gammaRec *farm.Recycler
	for i, p := range plan {
		sfCfg := rustockSubfarm(p.name, i, p.bots+p.iron)
		sfCfg.ContainmentServers = p.servers
		sf, err := f.AddSubfarm(sfCfg)
		if err != nil {
			return nil, err
		}
		out.Subfarms = append(out.Subfarms, sf)

		for j := 0; j < p.bots; j++ {
			if _, err := sf.AddInmate(fmt.Sprintf("%s-bot-%d", strings.ToLower(p.name), j)); err != nil {
				return nil, err
			}
		}
		if p.iron > 0 {
			// Small images over a fast trunk keep the reimage leg short, so
			// the rotation's natural inter-mark gap stays well inside the
			// wedge budget — only the injected wedge can freeze the mark.
			rec, err := sf.StartIronRotation(p.iron,
				rawiron.Config{MaxConcurrent: 2, ImageSizeMB: 256, TrunkMBps: 16, HiddenRestoreMBps: 16},
				farm.RecyclerConfig{DetonateFor: 90 * time.Second})
			if err != nil {
				return nil, err
			}
			gammaRec = rec
		}
	}

	// The whole tree comes up before any traffic or fault: root node,
	// every subfarm node, the recycler progress watch, the shard-host
	// aliveness watch over steephost.
	out.Tree = f.SuperviseTree(fleetSupervision())

	// Phase 1 — probes against the healthy fleet.
	if err := fleetProbeRound(f.Farm, out, "before", 0); err != nil {
		return nil, err
	}

	// Phase 2 — the blackout window.
	for i, p := range plan {
		prof, err := chaos.Parse(p.profile)
		if err != nil {
			return nil, err
		}
		out.Injectors = append(out.Injectors, chaos.Apply(out.Subfarms[i], prof))
	}
	f.Run(cfg.Duration)

	lockedAfterMain := out.Tree.GlobalLockedDown()

	// Phase 3 — probes while the fleet is in global dead-man lockdown.
	if err := fleetProbeRound(f.Farm, out, "during", 1); err != nil {
		return nil, err
	}

	// Phase 4 — operator release, then probe again. Alpha's containment
	// plane is still quarantined, so its node re-escalates: back into
	// subfarm lockdown after LockdownBudget, back into global lockdown
	// after DeadManBudget — fail-closed is sticky until the plane is
	// actually repaired, and the probes must not escape in the gap.
	out.Tree.Release("operator: fleet soak release")
	if err := fleetProbeRound(f.Farm, out, "after", 2); err != nil {
		return nil, err
	}

	// Wind down: stop the rotation and the specimens (VLAN order — map
	// order would leak into the journal), end injection, drain past every
	// sweep horizon.
	if gammaRec != nil {
		gammaRec.Stop()
	}
	var err error
	if out.Journal, err = f.windDown(out.Injectors); err != nil {
		return nil, err
	}

	// The deterministic escalation record.
	out.Escalations["root"] = out.Tree.History()
	out.Escalations["root.controller"] = out.Tree.ControllerHistory()
	for _, sf := range out.Subfarms {
		out.Escalations[sf.Name] = sf.Supervisor.History()
		out.Health[sf.Name] = sf.Supervisor.HealthHistory()
	}
	out.GlobalLockdownAt = out.Tree.GlobalLockdownAt()

	// --- Invariant checks ---
	inv := (*problems)(&out.Problems)
	bad := inv.bad

	// Containment held at every phase — not one probe escaped — and every
	// flow table drained empty, lockdown or not.
	for i, sf := range out.Subfarms {
		inv.commonInvariants(sf, out.Probes["before"][i], out.Probes["during"][i], out.Probes["after"][i])
	}

	// The ladder reached the top inside the fault window, and the
	// operator release did not stick: alpha's dead plane re-escalated.
	if !lockedAfterMain {
		bad("fault window ended without global dead-man lockdown")
	}
	if !out.Tree.GlobalLockedDown() {
		bad("release with a still-dead containment plane did not re-escalate to global lockdown")
	}
	if out.GlobalLockdownAt == 0 {
		bad("GlobalLockdownAt is zero despite lockdown")
	}

	alpha, beta, gamma := out.Subfarms[0], out.Subfarms[1], out.Subfarms[2]
	// Alpha: every containment server breaker-quarantined, node in
	// fail-closed lockdown, and the gateway actually dropped traffic.
	for i := range alpha.CSCluster {
		if !alpha.Supervisor.Quarantined(i) {
			bad("alpha cs%d survived a three-kill schedule that must trip the breaker", i)
		}
	}
	if !alpha.Supervisor.LockedDown() {
		bad("alpha's dead containment plane did not end in subfarm lockdown")
	}
	snap := f.Sim.Obs().Snapshot()
	out.Snapshot = snap
	out.LockdownDrops = snap.Counter("subfarm.Alpha.lockdown_drops")
	if out.LockdownDrops == 0 {
		bad("alpha gateway in lockdown dropped no packets — fail-closed never bit")
	}

	// Beta and gamma: every fault was survivable and the tree recovered
	// it — no quarantine, no lockdown, plane healthy at the end.
	for _, sf := range []*farm.Subfarm{beta, gamma} {
		for i := range sf.CSCluster {
			if sf.Supervisor.Quarantined(i) {
				bad("%s cs%d quarantined — two kills within the window must stay under the breaker", sf.Name, i)
			} else if !sf.Supervisor.Healthy(i) {
				bad("%s cs%d still unhealthy after drain — supervised restart failed", sf.Name, i)
			}
		}
		// The node is in lockdown at the end — but only because the global
		// dead-man fan-out closed it. It must never have escalated on its
		// own: no containment_dead, no self-originated lockdown.
		for _, e := range sf.Supervisor.History() {
			if strings.HasPrefix(e, "containment_dead@") {
				bad("%s escalated on its own (%s) — its faults were all survivable", sf.Name, e)
			}
		}
		if snap.Gauge(supervisor.HealthGaugeName(supervisor.KindSink, sf.Name, "smtpsink")) != 1 {
			bad("%s smtpsink still down — supervised sink restart failed", sf.Name)
		}
	}

	// The controller hang was detected by the subfarm PING probes and
	// cleared by the root's restart ladder.
	if !out.Tree.ControllerHealthy() {
		bad("controller still unhealthy — the root restart ladder failed to clear the hang")
	}
	if len(out.Tree.ControllerHistory()) == 0 {
		bad("controller ladder has no history — the hang was never detected")
	}
	if got := snap.Counter("supervisor.root.restarts"); got == 0 {
		bad("root restarted the controller 0 times — the hang was never repaired")
	}

	// The recycler wedge was detected by the progress watch and re-armed;
	// the rotation kept cycling afterwards.
	out.Rearms = snap.Counter("supervisor.root.rearms")
	if out.Rearms == 0 {
		bad("recycler wedge never re-armed — the root progress watch missed it")
	}
	if gammaRec != nil {
		out.Cycles = gammaRec.Cycles
		if out.Cycles < 2 {
			bad("gamma completed %d recycling cycles, want >= 2 — the rotation did not survive the wedge", out.Cycles)
		}
		if gammaRec.Lost != 0 {
			bad("gamma lost %d rotation members — the wedge must be survivable", gammaRec.Lost)
		}
	}

	// Satellite regression: on a supervised subfarm the chaos injector
	// only breaks the sink; the restart must be journalled by the
	// supervisor, never by chaos.
	if !journalHas(out.Journal, `"`+supervisor.EvEndpointRestart+`"`, "sink:smtpsink") {
		bad("journal has no supervisor restart for sink:smtpsink — supervised sink recovery missing")
	}
	if !journalHas(out.Journal, `"`+chaos.EvSinkCrash+`"`) {
		bad("journal has no chaos sink_crash — the fault never fired")
	}
	for _, forbidden := range []string{
		chaos.EvSinkRestore, chaos.EvCSRestart, chaos.EvCtlRestore, chaos.EvRecRearm,
	} {
		if journalHas(out.Journal, `"`+forbidden+`"`) {
			bad("journal has %s — chaos restored a fault the supervision tree owns", forbidden)
		}
	}

	// Every injected CS crash actually fired.
	for i, inj := range out.Injectors {
		prof, _ := chaos.Parse(plan[i].profile)
		if inj.Crashes != len(prof.CSCrashAt) {
			bad("%s injected %d CS crashes, profile scheduled %d",
				plan[i].name, inj.Crashes, len(prof.CSCrashAt))
		}
	}

	return out, nil
}

// fleetProbeRound runs one containment probe per subfarm. Each (subfarm,
// round) pair gets its own canary address so repeated rounds never stack
// duplicate canary hosts on one IP — an escape in any round is
// attributable to exactly one probe.
func fleetProbeRound(f *farm.Farm, out *FleetOutcome, phase string, round int) error {
	for i, sf := range out.Subfarms {
		addr := netstack.MustParseAddr(fmt.Sprintf("198.51.100.%d", 200+10*i+round))
		var targets []farm.ProbeTarget
		for _, port := range []uint16{22, 25, 80, 443} {
			targets = append(targets, farm.ProbeTarget{Addr: addr, Port: port})
		}
		probe, err := farm.RunContainmentProbe(f, sf, targets, 2*time.Minute)
		if err != nil {
			return err
		}
		out.Probes[phase] = append(out.Probes[phase], probe)
	}
	return nil
}

// journalHas reports whether any NDJSON line contains every needle.
func journalHas(journal []byte, needles ...string) bool {
	for _, line := range bytes.Split(journal, []byte("\n")) {
		ok := true
		for _, n := range needles {
			if !bytes.Contains(line, []byte(n)) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
