// Package supervisor makes the farm's measurement plane self-healing
// while keeping it provably fail-closed. It is organised as a supervision
// tree (DESIGN.md §3f): one per-subfarm node watches every endpoint kind
// an escape could route through — containment servers (sim-clock
// heartbeat probes over the shim channel), sink servers (TCP liveness
// probes from a dedicated prober host) and the farm-wide inmate
// controller (an application-level PING over the management network) —
// and a farm-root node (see Root) watches the root-level dependencies:
// the controller's restart authority, recycler progress, and
// external service hosts.
//
// Every node escalates deterministically on sim-clock budgets:
//
//	probe miss ×K  →  supervised restart (capped exponential backoff plus
//	sim-RNG jitter, behind a circuit breaker)  →  component quarantine
//	→  subfarm fail-closed lockdown (Router.SetLockdown: every live flow
//	resolved through the fail-close path, new traffic dropped)  →
//	global dead-man lockdown when a root-level dependency stays dead
//	past its budget.
//
// Determinism: every timer runs on the owning node's simulation domain
// clock, every random choice (restart jitter) draws from that domain's
// RNG, and every cross-domain escalation travels sim.Hop — so a
// (seed, profile) pair replays byte-identically at any worker count; the
// tree is just more events in the same ordered world. All state is
// touched only from the owning domain goroutine, like the router's.
package supervisor

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/host"
	"gq/internal/inmate"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// Kind names an endpoint class in the supervision tree. It appears in
// health-gauge names (supervisor.<kind>.<id>.healthy) and journal events.
type Kind string

// Supervised endpoint kinds.
const (
	KindCS         Kind = "cs"         // containment server (shim heartbeats)
	KindSink       Kind = "sink"       // sink server (TCP liveness probe)
	KindController Kind = "controller" // inmate controller (PING/PONG probe)
	KindRecycler   Kind = "recycler"   // recycling pipeline (progress watch)
	KindShard      Kind = "shard"      // external service host (aliveness)
)

// Journalled supervision events (all under obs.EvSupervisorPrefix). The
// containment-server kind keeps its original vocabulary; every other kind
// uses the generic endpoint events with "<kind>:<id>" in Detail. Tree
// escalations — lockdowns and their releases — are journalled under the
// "supervisor.tree" scope.
const (
	EvCSDown           = obs.EvSupervisorPrefix + "cs_down"
	EvCSUp             = obs.EvSupervisorPrefix + "cs_up"
	EvCSRestart        = obs.EvSupervisorPrefix + "cs_restart"
	EvCSQuarantine     = obs.EvSupervisorPrefix + "cs_quarantine"
	EvInmateQuarantine = obs.EvSupervisorPrefix + "inmate_quarantine"

	EvEndpointDown       = obs.EvSupervisorPrefix + "down"
	EvEndpointUp         = obs.EvSupervisorPrefix + "up"
	EvEndpointRestart    = obs.EvSupervisorPrefix + "restart"
	EvEndpointQuarantine = obs.EvSupervisorPrefix + "quarantine"

	EvEscalate        = obs.EvSupervisorPrefix + "escalate"
	EvLockdown        = obs.EvSupervisorPrefix + "lockdown"
	EvLockdownRelease = obs.EvSupervisorPrefix + "lockdown_release"
	EvGlobalLockdown  = obs.EvSupervisorPrefix + "global_lockdown"
	EvGlobalRelease   = obs.EvSupervisorPrefix + "global_release"
)

// TreeScope is the journal scope every escalation transition is emitted
// under, on the escalating node's own domain.
const TreeScope = "supervisor.tree"

// Probe, restart and strike tuning shared by every node of the tree.
const (
	// heartbeatEvery is the probe cadence per endpoint, every kind, and
	// heartbeatTimeout how long one probe may go unanswered. missThreshold
	// (K) consecutive missed deadlines mark an endpoint unhealthy.
	heartbeatEvery   = 5 * time.Second
	heartbeatTimeout = time.Second
	missThreshold    = 3

	// restartBackoff is the initial restart delay after an endpoint goes
	// down; it doubles per attempt up to restartBackoffMax, each attempt
	// jittered by up to restartJitter of the delay (sim RNG).
	restartBackoff    = 5 * time.Second
	restartBackoffMax = 2 * time.Minute
	restartJitter     = 0.5

	// breakerWindow is the circuit breaker's window: Config.BreakerThreshold
	// restarts within it drain the endpoint for good.
	breakerWindow = 10 * time.Minute

	// inmateStrikeThreshold strikes (trigger firings or containment-probe
	// escapes) within inmateStrikeWindow quarantine an inmate via the
	// controller, using inmateQuarantineAction as the lifecycle verb.
	inmateStrikeWindow     = 30 * time.Minute
	inmateStrikeThreshold  = 3
	inmateQuarantineAction = "stop"

	// progressEvery is the root node's progress-watch poll cadence
	// (recyclers, external hosts).
	progressEvery = 30 * time.Second
)

// Config holds the escalation thresholds a caller may tighten. Zero values
// select the defaults.
type Config struct {
	// BreakerThreshold restarts within breakerWindow trip the circuit
	// breaker: the endpoint is drained and no longer redialed.
	BreakerThreshold int // default 5

	// LockdownBudget is how long the subfarm's containment plane may stay
	// fully dead — every containment server down or quarantined,
	// continuously — before the node escalates to subfarm fail-closed
	// lockdown.
	LockdownBudget time.Duration // default 2m
	// DeadManBudget is how long a root-level dependency (the controller,
	// or a subfarm already in lockdown) may stay dead before the root
	// node escalates to global dead-man lockdown.
	DeadManBudget time.Duration // default 5m
	// WedgeBudget is how long a progress-watched component may go without
	// advancing its mark, while active, before it is declared wedged and
	// re-armed.
	WedgeBudget time.Duration // default 15m
}

// orDefault replaces an unset (zero or negative) tuning value.
func orDefault[T int | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

func (c Config) withDefaults() Config {
	orDefault(&c.BreakerThreshold, 5)
	orDefault(&c.LockdownBudget, 2*time.Minute)
	orDefault(&c.DeadManBudget, 5*time.Minute)
	orDefault(&c.WedgeBudget, 15*time.Minute)
	return c
}

// Endpoint describes one supervised service host: a containment server or
// a sink server. A restart power-cycles the host, which puts back what it
// had bound when the node was built (host.PowerCycler). Sinks also carry
// their SvcHosts role as ID ("catchall", "smtpsink", ...) and a TCP port a
// liveness probe can dial; containment servers need only their host: they
// are named by cluster position and probed over the shim channel.
type Endpoint struct {
	ID   string
	Host *host.Host
	Port uint16
}

// Router is what a subfarm node needs of its gateway (*gateway.Router):
// the shim heartbeat channel, per-endpoint dispatch health and fail-close,
// and the lockdown switch.
type Router interface {
	SetHealthObserver(fn func(idx int, seq uint64))
	SendHealthProbe(idx int, seq uint64)
	SetEndpointHealth(idx int, healthy bool)
	FailCloseEndpoint(idx int, reason string) int
	SetLockdown(on bool, reason string) int
}

// Deps wires a Supervisor into its subfarm. Everything lives in (or is
// reachable from) the subfarm's simulation domain.
type Deps struct {
	Sim    *sim.Simulator
	Router Router
	Name   string // subfarm name, used in metric and scope names
	// Endpoints lists the containment servers in router endpoint-index
	// order (cluster order, or the single server).
	Endpoints []Endpoint
	// Sinks lists the subfarm's supervised sink servers. Each is probed
	// with a TCP dial from Prober and restarted in place (a host power
	// cycle) on its own breaker-guarded ladder.
	Sinks []Endpoint
	// Prober is the service-VLAN host sink liveness probes dial from.
	// Required when Sinks is non-empty.
	Prober *host.Host
	// Mgmt is the subfarm's management-network host; inmate-quarantine
	// actions are sent from it to Controller over the real management
	// network, cross-posting into the inmate's shard domain like any other
	// controller action. It is also where controller liveness probes dial
	// from.
	Mgmt       *host.Host
	Controller *host.Host

	// Root, when set (with Controller and Mgmt), makes the node probe the
	// farm-wide inmate controller with an application-level PING from
	// Mgmt. The subfarm node only detects — restart authority belongs to
	// the farm root, which owns the controller's domain — so down/up
	// transitions are posted into the root's domain and feed its
	// controller watch.
	Root *Root
}

// Health gauges, one per watch, named
// supervisor.<kind>.<node>-<id>.healthy (1 healthy, 0 down). The ops
// plane's /healthz handler scans the registry snapshot for them and
// reports a per-kind breakdown; degraded when any reads 0 or an expected
// kind registered none.
const (
	HealthGaugePrefix = "supervisor."
	HealthGaugeSuffix = ".healthy"
)

// HealthGaugeName returns the registry gauge name for one watch's health
// bit. node is the owning node ("<subfarm>" or "root").
func HealthGaugeName(kind Kind, node, id string) string {
	return HealthGaugePrefix + string(kind) + "." + node + "-" + id + HealthGaugeSuffix
}

// ParseHealthGauge splits a registry gauge name produced by
// HealthGaugeName back into its kind and "<node>-<id>" endpoint name.
func ParseHealthGauge(name string) (kind Kind, endpoint string, ok bool) {
	if !strings.HasPrefix(name, HealthGaugePrefix) || !strings.HasSuffix(name, HealthGaugeSuffix) {
		return "", "", false
	}
	body := strings.TrimSuffix(strings.TrimPrefix(name, HealthGaugePrefix), HealthGaugeSuffix)
	k, ep, found := strings.Cut(body, ".")
	if !found || k == "" || ep == "" {
		return "", "", false
	}
	return Kind(k), ep, true
}

// LockdownGaugeSuffix suffixes the per-node lockdown gauges
// ("supervisor.<name>.lockdown", 1 while the node is in fail-closed
// lockdown).
const LockdownGaugeSuffix = ".lockdown"

// Supervisor is one subfarm's supervision-tree node: probe-fed watches
// over its containment servers, sinks and the inmate controller, inmate
// strike counting, and the subfarm's own escalation — a containment plane
// dead past LockdownBudget fails the subfarm closed.
type Supervisor struct {
	node
	deps Deps
	cs   []*watch // the containment servers, router index order

	// Inmate quarantine state: a strike breaker per VLAN, and which VLANs
	// have already been quarantined.
	strikes     map[uint16]*sim.Ladder
	quarantined map[uint16]bool

	// Escalation state: containment fully dead since (or -1) and lockdown
	// engaged. History() records "containment_dead@…", "lockdown@…
	// <reason>" and "release@… <reason>".
	deadSince time.Duration
	lockdown  bool

	// link is this node's place under a farm-root node (Root.Attach).
	link *subLink

	csQuarantines     *obs.Counter
	inmateQuarantines *obs.Counter
	lockdownsTotal    *obs.Counter
	recoveryMS        *obs.Histogram
	lockGauge         *obs.Gauge

	// Recoveries records each containment-server down->healthy interval,
	// in order. The recovery-time benchmark and the recovery soak's
	// bounded-recovery assertion read it.
	Recoveries []time.Duration
}

// New attaches a supervisor to its subfarm and starts the probe loop.
func New(deps Deps, cfg Config) *Supervisor {
	sup := newSupervisor(deps, cfg)
	for i, e := range deps.Endpoints {
		sup.watchCS(i, e.Host.Addr(), e.Host.PowerCycler())
	}
	for _, se := range deps.Sinks {
		w := sup.add(&watch{kind: KindSink, id: se.ID, addr: se.Host.Addr(), restart: se.Host.PowerCycler()})
		w.probe = func(seq uint64) { sup.probeTCP(w, se.Host, se.Port, seq) }
	}
	if deps.Root != nil && deps.Controller != nil && deps.Mgmt != nil {
		w := sup.watchController(deps.Root, deps.Controller.Addr())
		w.probe = func(seq uint64) { sup.probePing(w, seq) }
	}
	return sup
}

// newSupervisor builds the node with no watches yet and starts its probe
// loop.
func newSupervisor(deps Deps, cfg Config) *Supervisor {
	cfg = cfg.withDefaults()
	s := deps.Sim
	o := s.Obs()
	pfx := "supervisor." + deps.Name + "."
	sup := &Supervisor{
		node: node{
			cfg: cfg, s: s, name: deps.Name,
			sc:          o.Scope("supervisor."+deps.Name, obs.DefaultRingSize),
			tree:        o.Scope(TreeScope, obs.DefaultRingSize),
			watchCounts: make(map[string]int),
			missesTotal: o.Reg.Counter(pfx + "heartbeats_missed"),
			restarts:    o.Reg.Counter(pfx + "restarts"),
			quarantines: o.Reg.Counter(pfx + "sink_quarantines"),
		},
		deps:        deps,
		strikes:     make(map[uint16]*sim.Ladder),
		quarantined: make(map[uint16]bool),
		deadSince:   -1,

		csQuarantines:     o.Reg.Counter(pfx + "cs_quarantines"),
		inmateQuarantines: o.Reg.Counter(pfx + "inmate_quarantines"),
		lockdownsTotal:    o.Reg.Counter(pfx + "lockdowns"),
		lockGauge:         o.Reg.Gauge("supervisor." + deps.Name + LockdownGaugeSuffix),
		recoveryMS: o.Reg.Histogram(pfx+"recovery_ms",
			10, 50, 100, 500, 1000, 5000, 15000, 30000, 60000, 120000),
	}
	deps.Router.SetHealthObserver(func(idx int, seq uint64) {
		if idx >= 0 && idx < len(sup.cs) {
			sup.probeReply(sup.cs[idx], seq)
		}
	})
	s.Every(heartbeatEvery, sup.tick)
	return sup
}

// watchCS adds the watch over containment server idx: heartbeat-probed
// over the shim channel, dropped from dispatch with its stranded flows
// failed closed whenever it is down or quarantined, and feeding the
// subfarm's containment-dead clock on every transition.
func (sup *Supervisor) watchCS(idx int, addr netstack.Addr, restart func()) *watch {
	w := sup.add(&watch{
		kind: KindCS, id: fmt.Sprintf("cs%d", idx), addr: addr, n: uint64(idx),
		restart: restart, quarantines: sup.csQuarantines,
	})
	w.events, w.label, w.noun = csEvents, w.id, "containment server"
	w.probe = func(seq uint64) { sup.deps.Router.SendHealthProbe(idx, seq) }
	w.before = func(t transition) string {
		sup.deps.Router.SetEndpointHealth(idx, false)
		failed := sup.deps.Router.FailCloseEndpoint(idx, "containment server "+string(t))
		return fmt.Sprintf(" (%d flows failed closed)", failed)
	}
	w.after = func(t transition, _ string) {
		if t == up {
			sup.deps.Router.SetEndpointHealth(idx, true)
			recovery := sup.s.Now() - w.downAt
			sup.Recoveries = append(sup.Recoveries, recovery)
			sup.recoveryMS.Observe(int64(recovery / time.Millisecond))
		}
		sup.checkContainment()
	}
	sup.cs = append(sup.cs, w)
	return w
}

// watchController adds the watch-only watch over the farm-wide inmate
// controller: every down (and still-down) and up finding is posted into
// root's domain, where the controller's one restart ladder lives.
func (sup *Supervisor) watchController(root *Root, addr netstack.Addr) *watch {
	w := sup.add(&watch{kind: KindController, id: "controller", addr: addr})
	w.after = func(t transition, _ string) {
		sup.s.Hop(root.s, func() { root.controllerReport(t, sup.name) })
	}
	return w
}

// probeTCP checks a sink with a bare TCP dial from the prober host:
// reaching ESTABLISHED within the deadline is alive. The connection exists
// only for the handshake and is aborted either way.
func (sup *Supervisor) probeTCP(w *watch, to *host.Host, port uint16, seq uint64) {
	c := sup.deps.Prober.Dial(to.Addr(), port)
	done := false
	c.OnConnect = func() {
		done = true
		c.Abort()
		sup.probeReply(w, seq)
	}
	sup.s.Schedule(heartbeatTimeout, func() {
		if !done {
			c.Abort()
		}
	})
}

// probePing checks the inmate controller with an application-level PING
// over the management network: only a PONG line within the deadline is
// alive, so a hung controller (accepting but not answering) reads as down
// even though its SYN backlog is healthy.
func (sup *Supervisor) probePing(w *watch, seq uint64) {
	done := false
	c := inmate.SendLine(sup.deps.Mgmt, sup.deps.Controller, "PING", func(reply string) {
		done = true
		if reply == "PONG" {
			sup.probeReply(w, seq)
		}
	})
	sup.s.Schedule(heartbeatTimeout, func() {
		if !done {
			c.Abort()
		}
	})
}

// containmentDead reports whether every containment server is down or
// quarantined — the state no flow can be adjudicated in.
func (sup *Supervisor) containmentDead() bool {
	for _, w := range sup.cs {
		if w.healthy {
			return false
		}
	}
	return len(sup.cs) > 0
}

// checkContainment runs after every containment-server health transition:
// the moment the whole plane goes dark the lockdown clock starts, and if
// it is still dark LockdownBudget later the node fails the subfarm
// closed. Any single recovery resets the clock.
func (sup *Supervisor) checkContainment() {
	if !sup.containmentDead() {
		sup.deadSince = -1
		return
	}
	if sup.deadSince >= 0 || sup.lockdown {
		return
	}
	stamp := sup.s.Now()
	sup.deadSince = stamp
	sup.note("containment_dead", "")
	sup.tree.Emit(obs.Event{Type: EvEscalate, Detail: sup.name + ": containment plane dead"})
	sup.s.Schedule(sup.cfg.LockdownBudget, func() {
		if sup.deadSince == stamp && !sup.lockdown && sup.containmentDead() {
			sup.EngageLockdown("containment plane dead past budget")
		}
	})
}

// EngageLockdown fails the whole subfarm closed: every live flow is
// resolved through the router's fail-close path and new traffic is
// dropped at the router until release. The escalation is journalled
// under supervisor.tree with a flight-recorder dump and reported to the
// tree root, which starts the global dead-man clock. Runs on the
// subfarm's domain goroutine; idempotent. Returns the number of flows
// failed closed.
func (sup *Supervisor) EngageLockdown(reason string) int {
	if sup.lockdown {
		return 0
	}
	sup.lockdown = true
	sup.lockGauge.Set(1)
	sup.lockdownsTotal.Inc()
	failed := sup.deps.Router.SetLockdown(true, "subfarm lockdown: "+reason)
	sup.note("lockdown", " "+reason)
	sup.tree.Emit(obs.Event{Type: EvLockdown, N: uint64(failed), Detail: sup.name + ": " + reason})
	sup.tree.Dump(fmt.Sprintf("subfarm %s locked down (%s; %d flows failed closed)", sup.name, reason, failed))
	if l := sup.link; l != nil {
		sup.s.Hop(l.root.s, func() { l.root.onSubfarmLockdown(l) })
	}
	return failed
}

// ReleaseLockdown reopens the subfarm: the router accepts new flows
// again, and if the containment plane is still dead a fresh lockdown
// budget starts counting. Runs on the subfarm's domain goroutine.
func (sup *Supervisor) ReleaseLockdown(reason string) {
	if !sup.lockdown {
		return
	}
	sup.lockdown = false
	sup.lockGauge.Set(0)
	sup.deps.Router.SetLockdown(false, reason)
	sup.note("release", " "+reason)
	sup.tree.Emit(obs.Event{Type: EvLockdownRelease, Detail: sup.name + ": " + reason})
	if l := sup.link; l != nil {
		sup.s.Hop(l.root.s, func() { l.root.onSubfarmRelease(l) })
	}
	sup.deadSince = -1
	sup.checkContainment()
}

// LockedDown reports whether the subfarm is in fail-closed lockdown.
func (sup *Supervisor) LockedDown() bool { return sup.lockdown }

// Strike adds one strike for an inmate — a trigger-driven lifecycle action
// ("trigger:<action>", from the subfarm's lifecycle sink) or a
// containment-probe escape ("probe-escape") — and quarantines it at the
// threshold: repeated firings or escapes mean containment is not holding
// the specimen — revert/stop it rather than keep fighting. Runs in the
// subfarm's domain.
func (sup *Supervisor) Strike(vlan uint16, why string) {
	if sup.quarantined[vlan] {
		return
	}
	l := sup.strikes[vlan]
	if l == nil {
		l = sim.NewLadder(sup.s, sim.LadderConfig{
			Window: inmateStrikeWindow, Threshold: inmateStrikeThreshold,
		})
		sup.strikes[vlan] = l
	}
	l.Record()
	if !l.Tripped() {
		return
	}
	sup.quarantined[vlan] = true
	sup.inmateQuarantines.Inc()
	sup.sc.Emit(obs.Event{Type: EvInmateQuarantine, VLAN: vlan, Detail: why})
	sup.sc.Dump(fmt.Sprintf("inmate VLAN %d quarantined (%s)", vlan, why))
	// The quarantine action travels the real management network to the
	// farm controller, which cross-posts the execution into the inmate's
	// shard domain exactly like trigger-driven lifecycle actions.
	inmate.SendAction(sup.deps.Mgmt, sup.deps.Controller, inmateQuarantineAction, vlan, nil)
}

// Healthy reports containment-server endpoint idx's current health.
func (sup *Supervisor) Healthy(idx int) bool {
	return idx >= 0 && idx < len(sup.cs) && sup.cs[idx].healthy
}

// Quarantined reports whether containment-server endpoint idx tripped the
// circuit breaker.
func (sup *Supervisor) Quarantined(idx int) bool {
	return idx >= 0 && idx < len(sup.cs) && sup.cs[idx].quarantined
}
