package farm

import "gq/internal/supervisor"

// This file wires the farm-root supervision node (supervisor.Root) into
// the farm: controller restart authority, recycler progress watches, and
// external-shard host watches. See DESIGN.md §3f.

// SuperviseTree builds the complete supervision tree: a root node on the
// farm's root domain, every subfarm supervised (Supervise, idempotent)
// and attached under it, progress watches over the recyclers attached so
// far, and aliveness watches over the external hosts present at wiring
// time. Controller down-reports from subfarm probes then feed the root's
// breaker-guarded restart ladder, and a subfarm lockdown that persists
// past DeadManBudget — or a controller that cannot be restarted —
// escalates to global dead-man lockdown. Call once, after the topology
// is built and before Run.
func (f *Farm) SuperviseTree(cfg supervisor.Config) *supervisor.Root {
	if f.Tree != nil {
		return f.Tree
	}
	f.Tree = f.rootNode(cfg)
	for _, h := range f.extHosts {
		f.Tree.WatchHost(supervisor.KindShard, h.Name, h)
	}
	for _, sf := range f.Subfarms {
		sup := sf.Supervise(cfg)
		f.Tree.Attach(sup)
		f.watchRecycler(sf)
	}
	return f.Tree
}

// watchRecycler registers the tree's progress watch over a subfarm's
// recycler, if both exist. The read and re-arm closures run on the
// subfarm's domain goroutine (the root round-trips via sim.Hop).
func (f *Farm) watchRecycler(sf *Subfarm) {
	r := sf.Recycler
	if f.Tree == nil || r == nil || r.watched {
		return
	}
	r.watched = true
	f.Tree.WatchProgress(supervisor.KindRecycler, sf.Name, sf.Sim,
		func() (int, bool) { return r.Progress(), r.Active() },
		r.Rearm)
}

// rootNode returns the farm-root supervision node, building it on first
// use. Any supervised subfarm needs it: its controller watch is the one
// breaker-guarded ladder that restarts the farm-wide inmate controller,
// however many subfarms report the hang. f.Tree is set only by SuperviseTree.
func (f *Farm) rootNode(cfg supervisor.Config) *supervisor.Root {
	if f.root == nil {
		f.root = supervisor.NewRoot(supervisor.RootDeps{
			Sim:               f.Sim,
			ControllerHost:    f.ControllerHost,
			RestartController: f.restartController,
		}, cfg)
	}
	return f.root
}

// restartController power-cycles the inmate controller host and rebinds
// the control listener, replaying the addressing snapshot taken at
// build. Runs on the root domain goroutine.
func (f *Farm) restartController() {
	h := f.ControllerHost
	h.Reset()
	h.ConfigureStatic(f.ctlAddr, f.ctlBits, 0)
	if err := f.Controller.Rebind(); err != nil {
		panic("farm: controller rebind failed: " + err.Error())
	}
	h.AnnounceARP()
}
