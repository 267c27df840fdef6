package supervisor

import (
	"time"

	"gq/internal/host"
	"gq/internal/obs"
	"gq/internal/sim"
)

// Root is the farm-root node of the supervision tree. It runs on the
// farm's root simulation domain and holds the watches no single subfarm
// owns: the inmate controller (report-fed — subfarm nodes probe it and
// post their findings here, because restart authority lives with the
// controller's domain), recycler progress per subfarm (progress-fed: a
// wedge is re-armed behind the breaker), and external service hosts
// (aliveness-fed, watch-only). It also tracks each attached subfarm's
// lockdown. When a root-level dependency stays dead past DeadManBudget —
// the controller unrestartable, or a subfarm still locked down — the root
// escalates to global dead-man lockdown: every attached subfarm fails
// closed at once.
//
// Cross-domain rules match the rest of the tree: subfarm→root reports
// and root→subfarm lockdown commands travel sim.Hop, so escalation
// order is part of the deterministic event order at any worker count.
// Operator commands (POST /lockdown, the ops dead-man switch) enter from
// alien goroutines via ops.Driver.Do, which injects them into the root
// domain (sim.Inject) before they touch any of this state.
type Root struct {
	node
	ctl      *watch // the inmate controller; nil without a ControllerHost
	subfarms []*subLink
	// ctlHistory is the controller's health history ("down@8m1s",
	// "restart@…", …), part of the fleet soak's determinism proof.
	ctlHistory []string

	global   bool
	globalAt time.Duration

	rearmsTotal *obs.Counter
	globalLocks *obs.Counter
	lockGauge   *obs.Gauge
}

// RootDeps wires the root node into the farm.
type RootDeps struct {
	Sim *sim.Simulator
	// ControllerHost, when non-nil, is the inmate controller's host;
	// RestartController power-cycles it and ends a hang. Both live on the
	// root domain.
	ControllerHost    *host.Host
	RestartController func()
}

// subLink is one attached subfarm node as the root sees it.
type subLink struct {
	root     *Root
	sup      *Supervisor
	locked   bool
	lockedAt time.Duration
}

// NewRoot builds the farm-root node and starts its progress poll.
func NewRoot(deps RootDeps, cfg Config) *Root {
	cfg = cfg.withDefaults()
	s := deps.Sim
	o := s.Obs()
	const pfx = "supervisor.root."
	tree := o.Scope(TreeScope, obs.DefaultRingSize)
	r := &Root{
		node: node{
			cfg: cfg, s: s, name: "root", sc: tree, tree: tree,
			watchCounts: make(map[string]int),
			restarts:    o.Reg.Counter(pfx + "restarts"),
			quarantines: o.Reg.Counter(pfx + "quarantines"),
		},
		rearmsTotal: o.Reg.Counter(pfx + "rearms"),
		globalLocks: o.Reg.Counter(pfx + "global_lockdowns"),
		lockGauge:   o.Reg.Gauge("supervisor.root" + LockdownGaugeSuffix),
	}
	if deps.ControllerHost != nil {
		w := r.watch(&watch{kind: KindController, id: "controller"})
		w.restart = func() {
			r.noteController(restarted)
			if deps.RestartController != nil {
				deps.RestartController()
			}
			// Subfarm probes confirm recovery; if none has within two probe
			// cycles, no news is bad news: climb the ladder again.
			s.Schedule(2*heartbeatEvery, func() {
				if !w.healthy {
					r.reportDown(w, "")
				}
			})
		}
		r.ctl = w
	}
	s.Every(progressEvery, r.poll)
	return r
}

// watch adds a root watch: its transitions land in the root's history, and
// the controller going down starts the dead-man clock — one that stays dead
// past the budget (restarts failing or breaker tripped) means no lifecycle
// verbs, no quarantine actions, no recycle: fail the whole farm closed.
func (r *Root) watch(w *watch) *watch {
	w.after = func(t transition, by string) {
		r.note(w.label+"_"+string(t), by)
		if w != r.ctl {
			return
		}
		r.noteController(t)
		if t == down {
			stamp := w.downAt
			r.deadMan(func() bool { return !w.healthy && w.downAt == stamp },
				"inmate controller dead past budget")
		}
	}
	return r.add(w)
}

// deadMan escalates to global lockdown if stillDead holds DeadManBudget
// from now.
func (r *Root) deadMan(stillDead func() bool, reason string) {
	r.s.Schedule(r.cfg.DeadManBudget, func() {
		if stillDead() && !r.global {
			r.GlobalLockdown(reason)
		}
	})
}

// Attach links a subfarm node under this root: its lockdowns start the
// root's dead-man clock, and a global lockdown fans out to it. Called at
// wiring time, before the farm runs. Idempotent per node.
func (r *Root) Attach(sup *Supervisor) {
	if sup.link != nil {
		return
	}
	sup.link = &subLink{root: r, sup: sup}
	r.subfarms = append(r.subfarms, sup.link)
}

// WatchProgress registers a progress-marked component owned by domain
// dom. read and rearm are invoked on dom's goroutine (the root
// round-trips via sim.Hop); read returns the current monotone
// progress mark and whether the component is active — an inactive
// component is never wedged. A mark frozen past WedgeBudget while active
// is journalled as down and re-armed at once, behind the breaker.
func (r *Root) WatchProgress(kind Kind, id string, dom *sim.Simulator, read func() (int, bool), rearm func()) {
	r.watch(&watch{
		kind: kind, id: id, dom: dom, read: read, budget: r.cfg.WedgeBudget,
		lastMark: -1, lastChange: r.s.Now(),
		restart:   func() { r.s.Hop(dom, rearm) },
		immediate: true, restartNote: " rearm", restarts: r.rearmsTotal,
	})
}

// WatchHost registers an aliveness watch over a service host
// (the external hosts): journalled and gauged, never restarted — external
// hosts are infrastructure the operator owns. It is a progress watch with
// no budget whose only "activity" is being dead: the first reading that
// finds the host not alive is down, the first that finds it alive is up.
func (r *Root) WatchHost(kind Kind, id string, h *host.Host) {
	r.watch(&watch{
		kind: kind, id: id, dom: h.Sim(),
		read: func() (int, bool) { return 0, !h.Alive() },
	})
}

// poll takes a reading of every polled watch. Watches owned by other
// domains are read with a Hop round trip — out to the owning domain,
// result posted back — which keeps both sides' event order deterministic.
func (r *Root) poll() {
	for _, w := range r.watches {
		if w.read == nil || w.quarantined {
			continue
		}
		r.s.Hop(w.dom, func() {
			mark, active := w.read()
			w.dom.Hop(r.s, func() { r.noteReading(w, mark, active) })
		})
	}
}

// controllerReport is how subfarm nodes feed the controller watch: the
// first down report takes it down, starting the restart ladder and the
// dead-man clock; repeats while a restart is pending or the breaker has
// tripped are dedup'd; an up report is the recovery evidence. Runs on the
// root domain goroutine (subfarm nodes post).
func (r *Root) controllerReport(t transition, from string) {
	if t != up {
		r.reportDown(r.ctl, " by "+from)
	} else if !r.ctl.healthy {
		r.markUp(r.ctl, " by "+from)
	}
}

// onSubfarmLockdown starts the dead-man clock for a locked-down subfarm:
// lockdown is a holding state, not a resolution, and one that persists
// past DeadManBudget means the farm as a whole can no longer be trusted
// to contain.
func (r *Root) onSubfarmLockdown(l *subLink) {
	if l.locked {
		return
	}
	name := l.sup.name
	l.locked = true
	l.lockedAt = r.s.Now()
	r.note("subfarm_lockdown", " "+name)
	r.tree.Emit(obs.Event{Type: EvEscalate, Detail: "subfarm " + name + " locked down"})
	stamp := l.lockedAt
	r.deadMan(func() bool { return l.locked && l.lockedAt == stamp },
		"subfarm "+name+" locked down past budget")
}

// onSubfarmRelease clears the dead-man clock for a released subfarm.
func (r *Root) onSubfarmRelease(l *subLink) {
	if l.locked {
		l.locked = false
		r.note("subfarm_release", " "+l.sup.name)
	}
}

// GlobalLockdown is the dead-man switch: every attached subfarm fails
// closed at once. Runs on the root domain goroutine; the per-subfarm
// engage commands cross-post into each subfarm's domain. Idempotent.
func (r *Root) GlobalLockdown(reason string) {
	if r.global {
		return
	}
	r.global = true
	r.globalAt = r.s.Now()
	r.lockGauge.Set(1)
	r.globalLocks.Inc()
	r.note("global_lockdown", " "+reason)
	r.tree.Emit(obs.Event{Type: EvGlobalLockdown, Detail: reason})
	r.tree.Dump("GLOBAL DEAD-MAN LOCKDOWN: " + reason)
	for _, l := range r.subfarms {
		r.s.Hop(l.sup.s, func() { l.sup.EngageLockdown("dead-man: " + reason) })
	}
}

// Release lifts a global lockdown: every attached subfarm reopens (its
// own escalation clocks restart if its containment plane is still dead).
// Runs on the root domain goroutine.
func (r *Root) Release(reason string) {
	if !r.global {
		return
	}
	r.global = false
	r.lockGauge.Set(0)
	r.note("global_release", " "+reason)
	r.tree.Emit(obs.Event{Type: EvGlobalRelease, Detail: reason})
	for _, l := range r.subfarms {
		r.s.Hop(l.sup.s, func() { l.sup.ReleaseLockdown("global release: " + reason) })
	}
}

// GlobalLockedDown reports whether the dead-man switch is engaged.
func (r *Root) GlobalLockedDown() bool { return r.global }

// GlobalLockdownAt returns the sim time the dead-man switch engaged
// (zero if it never did) — the lockdown-latency benchmark reads it.
func (r *Root) GlobalLockdownAt() time.Duration { return r.globalAt }

// ControllerHealthy reports the controller's current state as the tree
// sees it.
func (r *Root) ControllerHealthy() bool {
	return r.ctl == nil || r.ctl.healthy && !r.ctl.quarantined
}

// noteController appends one controller transition to its history. The
// after hook sees down, up and quarantined; the restart is noted where the
// controller's restart runs.
func (r *Root) noteController(t transition) {
	r.ctlHistory = append(r.ctlHistory, string(t)+"@"+r.s.Now().String())
}

// ControllerHistory returns the controller watch's transition history.
func (r *Root) ControllerHistory() []string { return append([]string(nil), r.ctlHistory...) }
