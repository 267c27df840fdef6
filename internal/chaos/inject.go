package chaos

import (
	"sort"
	"time"

	"gq/internal/farm"
	"gq/internal/netsim"
	"gq/internal/obs"
	"gq/internal/rawiron"
	"gq/internal/sim"
)

// Journalled fault events (all under obs.EvChaosPrefix). The chaos scope
// has its own flight-recorder ring, so every injected fault is provably
// captured alongside the subsystems' own event streams.
const (
	EvLinkDown     = obs.EvChaosPrefix + "link_down"
	EvLinkUp       = obs.EvChaosPrefix + "link_up"
	EvCSCrash      = obs.EvChaosPrefix + "cs_crash"
	EvCSRestart    = obs.EvChaosPrefix + "cs_restart"
	EvVerdictStall = obs.EvChaosPrefix + "verdict_stall"
	EvSinkDown     = obs.EvChaosPrefix + "sink_down"
	EvSinkUp       = obs.EvChaosPrefix + "sink_up"
	EvSinkCrash    = obs.EvChaosPrefix + "sink_crash"
	EvSinkRestore  = obs.EvChaosPrefix + "sink_restore"
	EvCtlHang      = obs.EvChaosPrefix + "ctl_hang"
	EvCtlRestore   = obs.EvChaosPrefix + "ctl_restore"
	EvRecWedge     = obs.EvChaosPrefix + "recycler_wedge"
	EvRecRearm     = obs.EvChaosPrefix + "recycler_rearm"
)

// ScopeFor is the journal scope fault events for one subfarm are emitted
// under ("chaos.<subfarm>"). Per-subfarm scopes keep multi-subfarm chaos
// runs from colliding: each injector journals into its own subfarm's
// domain, with its own flight-recorder ring.
func ScopeFor(subfarm string) string { return "chaos." + subfarm }

// link is one impaired inmate access link: the host-side NIC and the
// switch-side port it connects to.
type link struct {
	vlan    uint16
	nic, sw *netsim.Port
}

// Injector applies a Profile to a subfarm and owns the scheduled faults.
type Injector struct {
	sf *farm.Subfarm
	p  Profile
	s  *sim.Simulator
	sc *obs.Scope

	links   []link
	tickers []*sim.Ticker

	// starts are pending fault-start events (cancelled by Stop); restores
	// are pending fault-end events (run immediately by Stop so nothing is
	// left broken). Keys are allocation order, keeping Stop deterministic.
	starts     []*sim.Event
	restores   map[int]*restore
	nextRestID int

	stopped bool

	// rawIron, when non-nil, has fault hooks installed that Stop clears.
	rawIron *rawiron.Controller

	// Crashes counts containment-server crash injections performed.
	Crashes int
}

type restore struct {
	ev *sim.Event
	fn func()
}

// Apply installs the profile's faults on sf. Impairment covers the inmate
// access links present at call time — apply after the experiment's inmates
// are added. The returned Injector keeps injecting until Stop.
func Apply(sf *farm.Subfarm, p Profile) *Injector {
	// Everything the injector touches — links, service hosts, containment
	// servers — lives in the subfarm's simulation domain, so faults are
	// scheduled and journalled there, under the subfarm's own chaos scope.
	inj := &Injector{
		sf: sf, p: p, s: sf.Sim,
		sc:       sf.Sim.Obs().Scope(ScopeFor(sf.Name), obs.DefaultRingSize),
		restores: make(map[int]*restore),
	}

	// Snapshot inmate links in VLAN order: map iteration must not leak
	// into fault selection or the run stops replaying identically.
	im := netsim.Impairment{
		Loss: p.Loss, Jitter: p.Jitter, Reorder: p.Reorder,
		Dup: p.Dup, Corrupt: p.Corrupt,
	}
	for _, v := range sf.InmateVLANs() {
		nic := sf.Inmates[v].Host.NIC()
		l := link{vlan: v, nic: nic, sw: nic.Peer()}
		if l.sw == nil {
			continue
		}
		l.nic.Impair(im)
		l.sw.Impair(im)
		inj.links = append(inj.links, l)
	}

	if p.FlapEvery > 0 && len(inj.links) > 0 {
		inj.tickers = append(inj.tickers, inj.s.Every(p.FlapEvery, inj.flapOnce))
	}
	for i, at := range p.CSCrashAt {
		idx := i % len(sf.CSCluster)
		inj.start(at, func() { inj.crashCS(idx) })
	}
	if p.StallFor > 0 && p.StallDelay > 0 {
		inj.start(p.StallAt, inj.startStall)
	}
	if p.SinkDownFor > 0 {
		if h := sf.SvcHosts[p.Sink]; h != nil {
			inj.start(p.SinkDownAt, func() { inj.sinkDown(p.Sink) })
		}
	}
	if h := sf.SvcHosts[p.SinkCrashTarget]; h != nil {
		for _, at := range p.SinkCrashAt {
			inj.start(at, func() { inj.crashSink(p.SinkCrashTarget) })
		}
	}
	for _, at := range p.CtlHangAt {
		inj.start(at, inj.hangController)
	}
	for _, at := range p.RecyclerWedgeAt {
		inj.start(at, inj.wedgeRecycler)
	}
	if p.ReimageFaultsActive() && sf.RawIron != nil {
		// Raw-iron hardware faults install directly on the controller:
		// it draws per-opportunity fault decisions from its own domain's
		// RNG and journals them under each machine's scope.
		inj.rawIron = sf.RawIron
		inj.rawIron.InjectFaults(rawiron.Faults{
			NetbootHang:     p.ReimageNetbootHang,
			TransferStall:   p.ReimageXferStall,
			TransferCorrupt: p.ReimageXferCorrupt,
			PowerStick:      p.ReimagePowerStick,
		})
	}
	return inj
}

// start schedules a fault beginning; cancelled wholesale by Stop.
func (inj *Injector) start(d time.Duration, fn func()) {
	inj.starts = append(inj.starts, inj.s.Schedule(d, func() {
		if !inj.stopped {
			fn()
		}
	}))
}

// scheduleRestore schedules the end of a fault. If the injector is stopped
// first, Stop runs the restore immediately so the farm is left healthy.
func (inj *Injector) scheduleRestore(d time.Duration, fn func()) {
	id := inj.nextRestID
	inj.nextRestID++
	r := &restore{fn: fn}
	r.ev = inj.s.Schedule(d, func() {
		delete(inj.restores, id)
		fn()
	})
	inj.restores[id] = r
}

// flapOnce takes one randomly-selected inmate link down for FlapDown.
func (inj *Injector) flapOnce() {
	if inj.stopped {
		return
	}
	l := inj.links[inj.s.Rand().Intn(len(inj.links))]
	if !l.sw.Up() || !l.nic.Up() {
		return // already down (overlapping flap); skip this round
	}
	l.sw.SetUp(false)
	l.nic.SetUp(false)
	inj.sc.Emit(obs.Event{Type: EvLinkDown, VLAN: l.vlan})
	inj.scheduleRestore(inj.p.FlapDown, func() {
		l.sw.SetUp(true)
		l.nic.SetUp(true)
		inj.sc.Emit(obs.Event{Type: EvLinkUp, VLAN: l.vlan})
	})
}

// crashCS shuts a containment-server cluster member down mid-session —
// destroying its connections — and power-cycles it CSDownFor later: the
// host comes back with the addressing and listeners it had at the crash.
func (inj *Injector) crashCS(idx int) {
	srv := inj.sf.CSCluster[idx]
	h := srv.Host
	addr, restart := h.Addr(), h.PowerCycler()
	inj.Crashes++
	inj.sc.Emit(obs.Event{Type: EvCSCrash, N: uint64(idx), SrcIP: uint32(addr)})
	h.Shutdown()
	if inj.sf.Supervisor != nil {
		// A supervised subfarm owns its own recovery: the injector only
		// breaks things, and the supervisor's health tracking + backed-off
		// restart brings the server back. Scheduling the chaos restore too
		// would race it with a double restart.
		return
	}
	inj.scheduleRestore(inj.p.CSDownFor, func() {
		restart()
		inj.sc.Emit(obs.Event{Type: EvCSRestart, N: uint64(idx), SrcIP: uint32(addr)})
	})
}

// startStall makes every cluster member answer verdicts late for StallFor.
func (inj *Injector) startStall() {
	for _, srv := range inj.sf.CSCluster {
		srv.SetVerdictStall(inj.p.StallDelay)
	}
	inj.sc.Emit(obs.Event{Type: EvVerdictStall, N: uint64(inj.p.StallDelay.Milliseconds()), Detail: "begin"})
	inj.scheduleRestore(inj.p.StallFor, func() {
		for _, srv := range inj.sf.CSCluster {
			srv.SetVerdictStall(0)
		}
		inj.sc.Emit(obs.Event{Type: EvVerdictStall, Detail: "end"})
	})
}

// sinkDown pulls the named service host's NIC for SinkDownFor.
func (inj *Injector) sinkDown(name string) {
	h := inj.sf.SvcHosts[name]
	h.NIC().SetUp(false)
	if p := h.NIC().Peer(); p != nil {
		p.SetUp(false)
	}
	inj.sc.Emit(obs.Event{Type: EvSinkDown, SrcIP: uint32(h.Addr()), Detail: "outage"})
	inj.scheduleRestore(inj.p.SinkDownFor, func() {
		h.NIC().SetUp(true)
		if p := h.NIC().Peer(); p != nil {
			p.SetUp(true)
		}
		inj.sc.Emit(obs.Event{Type: EvSinkUp, SrcIP: uint32(h.Addr())})
	})
}

// crashSink shuts the named sink service host down mid-session —
// silencing its listeners and destroying its live connections, a harder
// fault than sinkDown's NIC pull. On a supervised subfarm the injector
// stops there: the subfarm node's TCP probes detect the dead listener and
// its breaker-guarded restart power-cycles the host, so recovery (and its
// journal trail) belongs to the supervisor, not chaos. Unsupervised
// subfarms get a chaos-owned power cycle SinkCrashFor later, which brings
// back what the host had bound at the crash.
func (inj *Injector) crashSink(name string) {
	h := inj.sf.SvcHosts[name]
	if h == nil {
		return
	}
	addr, restart := h.Addr(), h.PowerCycler()
	inj.sc.Emit(obs.Event{Type: EvSinkCrash, SrcIP: uint32(addr), Detail: name})
	h.Shutdown()
	if inj.sf.Supervisor != nil {
		return
	}
	inj.scheduleRestore(inj.p.SinkCrashFor, func() {
		restart()
		inj.sc.Emit(obs.Event{Type: EvSinkRestore, SrcIP: uint32(addr), Detail: name})
	})
}

// hangController silences the farm-wide inmate controller: its TCP
// listener keeps accepting and handshakes still complete, but the
// application swallows every line — exactly the failure mode a TCP-level
// liveness probe cannot see and the supervisor's app-level PING can. On a
// supervised subfarm recovery is the tree's: probes miss, the root's
// restart ladder power-cycles the controller host and clears the hang.
// Unsupervised, chaos unhangs it CtlHangFor later.
func (inj *Injector) hangController() {
	ctl, root := inj.sf.Farm.Controller, inj.sf.Farm.Sim // the controller is root-domain state
	if ctl == nil {
		return
	}
	inj.sc.Emit(obs.Event{Type: EvCtlHang, Detail: "begin"})
	inj.s.Hop(root, func() { ctl.SetHung(true) })
	if inj.sf.Supervisor != nil {
		return
	}
	inj.scheduleRestore(inj.p.CtlHangFor, func() {
		inj.s.Hop(root, func() { ctl.SetHung(false) })
		inj.sc.Emit(obs.Event{Type: EvCtlRestore})
	})
}

// wedgeRecycler cancels every armed timer in the subfarm's recycling
// pipeline. On a supervised subfarm the tree root's progress watch notices
// the stall past its budget and re-arms the pipeline (journalling the
// rearm); unsupervised, chaos re-arms it RecyclerWedgeFor later.
func (inj *Injector) wedgeRecycler() {
	r := inj.sf.Recycler
	if r == nil {
		return
	}
	n := r.Wedge()
	inj.sc.Emit(obs.Event{Type: EvRecWedge, N: uint64(n)})
	if inj.sf.Supervisor != nil {
		return
	}
	inj.scheduleRestore(inj.p.RecyclerWedgeFor, func() {
		r.Rearm()
		inj.sc.Emit(obs.Event{Type: EvRecRearm})
	})
}

// Stop ends injection: future faults are cancelled, in-flight faults are
// restored immediately (links up, stalls cleared, crashed servers brought
// back), and link impairment is removed. The farm can then drain cleanly.
func (inj *Injector) Stop() {
	if inj.stopped {
		return
	}
	inj.stopped = true
	for _, t := range inj.tickers {
		t.Stop()
	}
	for _, ev := range inj.starts {
		ev.Cancel()
	}
	// Run outstanding restores in scheduling order for determinism.
	ids := make([]int, 0, len(inj.restores))
	for id := range inj.restores {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		r := inj.restores[id]
		r.ev.Cancel()
		r.fn()
		delete(inj.restores, id)
	}
	for _, l := range inj.links {
		l.nic.Impair(netsim.Impairment{})
		l.sw.Impair(netsim.Impairment{})
		l.nic.SetUp(true)
		l.sw.SetUp(true)
	}
	for _, srv := range inj.sf.CSCluster {
		srv.SetVerdictStall(0)
	}
	if inj.rawIron != nil {
		// In-flight faulted stages still fail via their armed deadlines,
		// but every retry from here on runs clean.
		inj.rawIron.ClearFaults()
	}
}
