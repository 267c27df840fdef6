package farm

import "gq/internal/supervisor"

// supProbeOff is the service-prefix offset of the subfarm's supervision
// prober host (after the sinks at offsets 2-5 and the facade echo pair
// at 6-7; containment clusters start at 20).
const supProbeOff = 8

// SuperviseTree builds the supervision tree (DESIGN.md §3f), the farm's one
// supervised shape: a root node on the farm's root domain that owns the
// breaker-guarded controller restart ladder and the global dead-man switch,
// every subfarm supervised and attached under it, progress watches over the
// recyclers and aliveness watches over the external hosts that exist now —
// which is why it is the last step of the build (DESIGN.md §3j). A subfarm
// lockdown that persists past DeadManBudget, or a controller that cannot be
// restarted, escalates to global dead-man lockdown. Idempotent.
func (f *Farm) SuperviseTree(cfg supervisor.Config) *supervisor.Root {
	if f.Tree != nil {
		return f.Tree
	}
	// A restarted controller comes back with its listener (the power
	// cycle) and responsive: the restart ends a hang. Its inventory and
	// action log carry over — they model the VMM scan the paper's
	// controller performs at startup, which reconstructs the same inventory.
	powerCycle := f.ControllerHost.PowerCycler()
	f.Tree = supervisor.NewRoot(supervisor.RootDeps{
		Sim:            f.Sim,
		ControllerHost: f.ControllerHost,
		RestartController: func() {
			powerCycle()
			f.Controller.SetHung(false)
		},
	}, cfg)
	for _, h := range f.extHosts {
		f.Tree.WatchHost(supervisor.KindShard, h.Name, h)
	}
	for _, sf := range f.Subfarms {
		f.Tree.Attach(sf.supervise(cfg))
		if r := sf.Recycler; r != nil {
			// The read and re-arm closures run on the subfarm's domain
			// goroutine (the root round-trips via sim.Hop).
			f.Tree.WatchProgress(supervisor.KindRecycler, sf.Name, sf.Sim,
				func() (int, bool) { return r.Progress(), r.Active() }, r.Rearm)
		}
	}
	return f.Tree
}

// supervise builds the subfarm's node of the tree: containment servers
// heartbeat-probed over the shim channel, sink servers TCP-probed from a
// service-VLAN prober host, the inmate controller PING-probed over the
// management network — none of it crosses the router's flow table, so
// supervision keeps observing inside a lockdown. Controller transitions go
// to the tree's root, which owns that restart ladder.
func (sf *Subfarm) supervise(cfg supervisor.Config) *supervisor.Supervisor {
	f := sf.Farm
	deps := supervisor.Deps{
		Sim:        sf.Sim,
		Router:     sf.Router,
		Name:       sf.Name,
		Mgmt:       sf.CSMgmt,
		Controller: f.ControllerHost,
		Prober:     sf.newSvcHost("supprobe", sf.Config.ServicePrefix.Nth(supProbeOff), sf.Config.AccessLatency),
		Sinks:      sf.sinks,
		Root:       f.Tree,
	}
	for i := range sf.CSCluster {
		deps.Endpoints = append(deps.Endpoints, supervisor.Endpoint{Host: sf.SvcHosts[csName(i)]})
	}
	sf.Supervisor = supervisor.New(deps, cfg)
	return sf.Supervisor
}

// SetLockdown engages or releases the subfarm's fail-closed lockdown
// from the ops plane (run it on the subfarm's domain via Driver.Do).
// A supervised subfarm goes through its tree node, so the transition
// lands in the escalation history and the tree journal; an unsupervised
// one flips the router directly. Returns the number of flows failed
// closed on engage.
func (sf *Subfarm) SetLockdown(on bool, reason string) int {
	if sup := sf.Supervisor; sup != nil {
		if on {
			return sup.EngageLockdown(reason)
		}
		sup.ReleaseLockdown(reason)
		return 0
	}
	return sf.Router.SetLockdown(on, reason)
}
