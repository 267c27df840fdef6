package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"gq/internal/chaos"
	"gq/internal/farm"
	"gq/internal/netstack"
	"gq/internal/obs"
)

// Plan is a whole run as a value (DESIGN.md §3j): the farm to build, the
// faults each subfarm runs under, the phases, the drain. Execute is the one
// procedure that runs it; the four soaks and gqfarm's batch path are plans.
type Plan struct {
	Spec farm.Spec
	// Faults[i] is the profile the Faults phase applies to subfarm i.
	Faults []chaos.Profile
	// OnBuild runs once the farm stands, before the first phase: the place
	// for observers.
	OnBuild func(*farm.Farm) error
	Phases  []Phase
	// Drain is the virtual time the wind-down gives the flow tables to
	// empty; SoakDrain outlasts every sweep horizon (the splice-idle reap).
	Drain time.Duration
}

const (
	SoakDrain   = 12 * time.Minute
	probeWindow = 2 * time.Minute // one containment-probe round
)

// Run is a plan in execution.
type Run struct {
	*farm.Farm
	faults []chaos.Profile

	// Injectors[i] is subfarm i's injector once Faults has run.
	Injectors []*chaos.Injector
	// Probes[k][i] is the k-th probe round's outcome for subfarm i.
	Probes [][]*farm.ProbeOutcome
	// Snapshot is the metrics snapshot the invariants were checked against:
	// identical across runs with the same plan at any worker count.
	Snapshot *obs.Snapshot
	// Problems lists every violated invariant; empty means healthy.
	Problems []string
}

func (r *Run) bad(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Phase is one step of a run between build and wind-down.
type Phase func(*Run) error

// RunFor advances the farm by d of virtual time.
func RunFor(d time.Duration) Phase {
	return func(r *Run) error { r.Farm.Run(d); return nil }
}

// Faults applies the plan's per-subfarm fault profiles. Their schedules
// count from now; the inmates already stand, so every access link is
// impaired and reimage faults install on the raw-iron controllers.
func Faults(r *Run) error {
	for i, p := range r.faults {
		r.Injectors = append(r.Injectors, chaos.Apply(r.Subfarms[i], p))
	}
	return nil
}

// ProbeRound runs one containment probe per subfarm; targets, when set,
// picks subfarm i's canaries (nil: the default matrix).
func ProbeRound(targets func(i int) []farm.ProbeTarget) Phase {
	return func(r *Run) error {
		var round []*farm.ProbeOutcome
		for i, sf := range r.Subfarms {
			var tgts []farm.ProbeTarget
			if targets != nil {
				tgts = targets(i)
			}
			probe, err := farm.RunContainmentProbe(r.Farm, sf, tgts, probeWindow)
			if err != nil {
				return err
			}
			round = append(round, probe)
		}
		r.Probes = append(r.Probes, round)
		return nil
	}
}

// StopRotations stops every recycler opening detonation windows; captures
// and reimages in flight run to completion.
func StopRotations(r *Run) error {
	for _, sf := range r.Subfarms {
		if sf.Recycler != nil {
			sf.Recycler.Stop()
		}
	}
	return nil
}

// StopFaults ends injection: links come back, stalls clear, and whatever
// chaos broke on an unsupervised subfarm is restored.
func StopFaults(r *Run) error {
	for _, inj := range r.Injectors {
		inj.Stop()
	}
	return nil
}

// Release is the operator releasing the global dead-man lockdown.
func Release(reason string) Phase {
	return func(r *Run) error { r.Tree.Release(reason); return nil }
}

// Start builds the plan's farm and runs its OnBuild hook.
func Start(p Plan) (*Run, error) {
	f, err := p.Spec.Build()
	if err != nil {
		return nil, err
	}
	if p.OnBuild != nil {
		if err := p.OnBuild(f); err != nil {
			return nil, err
		}
	}
	return &Run{Farm: f, faults: p.Faults}, nil
}

// Execute is the run procedure: build, the phases in order, wind down —
// rotations stop, the specimens retire (VLAN order), injection ends, the
// farm drains — then the shared invariants. The journal is flushed on the
// error paths too.
func Execute(p Plan) (*Run, error) {
	r, err := Start(p)
	if err != nil {
		return nil, err
	}
	windDown := []Phase{StopRotations, retireInmates, StopFaults, RunFor(p.Drain)}
	err = r.Do(slices.Concat(p.Phases, windDown)...)
	if ferr := r.FlushJournal(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	r.check()
	return r, nil
}

// Do runs phases in order, stopping at the first error.
func (r *Run) Do(phases ...Phase) error {
	for _, phase := range phases {
		if err := phase(r); err != nil {
			return err
		}
	}
	return nil
}

func retireInmates(r *Run) error { r.RetireInmates(); return nil }

// inmateBounds are a subfarm's tables an inmate can grow — the gateway's and
// the catch-all sink's log — each by the series its owner counts refusals in
// (registered on the first one), with %s for the subfarm's name.
var inmateBounds = []struct{ series, what string }{
	{"subfarm.%s.mac_table_full", "source MACs past the gateway's bridging-table bound"},
	{"subfarm.%s.vlan_arp_full", "ARP senders past the gateway's VLAN ARP cache bound"},
	{"subfarm.%s.inmate_addr_full", "inmate addresses past the gateway's bound"},
	{"subfarm.%s.syn_tombs_full", "fail-closed SYNs past the gateway's tombstone bound"},
	{"subfarm.%s.rate_dest_full", "destinations past the gateway's safety-filter bound"},
	{"sink.%s-catchall.flow_log_full", "connections and datagrams past the catch-all sink's log bound"},
}

// check is what every run demands of every subfarm after the drain: no
// probe escaped, no containment server left down (breaker quarantine is a
// decision, not an outage), an empty flow table, no inmateBounds table an
// inmate overflowed — and of the farm, no switch's forwarding database
// overflowed and no inmate address on the blacklist.
func (r *Run) check() {
	leaked := false
	r.Snapshot = r.Sim.Obs().Snapshot()
	for i, sf := range r.Subfarms {
		for _, round := range r.Probes {
			if escaped := round[i].Escaped(); len(escaped) > 0 {
				r.bad("%s: containment probe escaped to %s", sf.Name, strings.Join(escaped, ", "))
			}
		}
		for c := range sf.CSCluster {
			if sup := sf.Supervisor; sup != nil && !sup.Healthy(c) && !sup.Quarantined(c) {
				r.bad("%s: containment server %d still down after drain", sf.Name, c)
			}
		}
		if n := sf.Router.ActiveFlows(); n > 0 {
			r.bad("%s: %d flows still open after drain", sf.Name, n)
			leaked = true
		}
		for _, bound := range inmateBounds {
			if n := r.Snapshot.Counter(fmt.Sprintf(bound.series, sf.Name)); n > 0 {
				r.bad("%s: %d %s", sf.Name, n, bound.what)
			}
		}
	}
	var overflowed []string
	for name, n := range r.Snapshot.Counters {
		rest, isSwitch := strings.CutPrefix(name, "netsim.switch.")
		if sw, isFull := strings.CutSuffix(rest, ".fdb_full"); isSwitch && isFull && n > 0 {
			overflowed = append(overflowed, fmt.Sprintf("switch %s: %d stations past its forwarding-database bound", sw, n))
		}
	}
	slices.Sort(overflowed)
	for _, msg := range overflowed {
		r.bad("%s", msg)
	}
	if leaked {
		r.Sim.Obs().Journal.DumpAll("run ended with open flows")
	}
	if n := r.CBL.ListedCount(); n > 0 {
		r.bad("%d inmate addresses blacklisted", n)
	}
}

// notQuarantined is the soaks' own demand on a subfarm whose faults were
// all survivable: the breaker never had to give up on a containment server.
func (r *Run) notQuarantined(sf *farm.Subfarm) {
	for c := range sf.CSCluster {
		if sf.Supervisor.Quarantined(c) {
			r.bad("%s cs%d quarantined by circuit breaker — a kill schedule within the "+
				"breaker budget must not trip it", sf.Name, c)
		}
	}
}

// crashesFired is the soaks' demand that the fault window outlasted every
// containment-server crash its profiles scheduled.
func (r *Run) crashesFired() {
	for i, inj := range r.Injectors {
		if want := len(r.faults[i].CSCrashAt); inj.Crashes != want {
			r.bad("%s injected %d CS crashes, profile scheduled %d", r.Subfarms[i].Name, inj.Crashes, want)
		}
	}
}

// rustockSubfarm is the i-th Rustock habitat of a multi-subfarm soak: its
// inmate VLANs start at 16+16i, with headroom for one probe inmate per phase.
func rustockSubfarm(name string, i, inmates int) farm.SubfarmSpec {
	lo := uint16(16 + 16*i)
	sf := farm.Botfarm()
	sf.Name = name
	sf.VLANLo, sf.VLANHi = lo, lo+uint16(inmates)+3
	sf.ServiceVLAN = lo - 5
	sf.GlobalPool = netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 2+i))
	sf.InfraPool = netstack.MustParsePrefix(fmt.Sprintf("192.0.%d.0/24", 32+i))
	sf.PolicyConfig = fmt.Sprintf("[VLAN %d-%d]\n", lo, lo+uint16(inmates)-1) + farm.RustockRule
	sf.SampleLibrary = farm.BotfarmSamples()[:1] // the Rustock specimen
	sf.SinkDropProb = 0.2
	return sf
}
