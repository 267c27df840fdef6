package supervisor

import (
	"time"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// transition names a watch's health change: the word in its history and
// dumps, the key into its kind's event vocabulary, what its hooks are told.
type transition string

const (
	down        transition = "down"
	up          transition = "up"
	restarted   transition = "restart"
	quarantined transition = "quarantined"
)

// Per-kind journal vocabulary. Containment servers keep their original
// event names with the bare id in Detail; every other kind shares the
// generic endpoint events with "<kind>:<id>" in Detail.
var (
	csEvents = map[transition]string{
		down: EvCSDown, up: EvCSUp, restarted: EvCSRestart, quarantined: EvCSQuarantine,
	}
	endpointEvents = map[transition]string{
		down: EvEndpointDown, up: EvEndpointUp, restarted: EvEndpointRestart, quarantined: EvEndpointQuarantine,
	}
)

// watch is one supervised thing on one tree node. Every kind on every
// node is this struct; kinds differ only in the data below: where bad news
// comes from, whether the node may restart the thing, and what else must
// happen around a transition.
type watch struct {
	kind Kind
	id   string // "cs0", "catchall", "controller", a subfarm or host name

	// How transitions are journalled: event types, Detail label, what
	// dumps call the thing, and the events' N / SrcIP (zero when n/a).
	events map[transition]string
	label  string
	noun   string
	n      uint64
	addr   netstack.Addr

	// Bad news has exactly one source. probe is an active check fired every
	// heartbeatEvery (K unanswered in a row is down); read is a progress
	// reading the root polls on the owning domain dom every progressEvery
	// (a mark frozen past budget while active is down); a watch with
	// neither is fed by other nodes' reports.
	probe  func(seq uint64)
	dom    *sim.Simulator
	read   func() (mark int, active bool)
	budget time.Duration

	// restart is the repair this node may attempt, behind ladder; nil
	// means watch-only. immediate repairs skip the backoff delay and its
	// RNG draw (re-arming a wedged pipeline is idempotent: nothing to
	// space out). restartNote is appended to the restart event's Detail.
	restart     func()
	immediate   bool
	restartNote string
	ladder      *sim.Ladder

	// before runs ahead of a down or quarantined journal entry and returns
	// a note for the flight-recorder dump; after runs behind every down, up
	// and quarantined entry, and again each time a watch-only thing is
	// reported still down (by names the reporter).
	before func(t transition) string
	after  func(t transition, by string)

	healthy     bool
	quarantined bool
	restartPend bool
	downAt      time.Duration
	misses      int // consecutive missed probe deadlines
	seq         uint64
	replied     bool // current probe answered
	lastMark    int
	lastChange  time.Duration

	gauge                 *obs.Gauge
	restarts, quarantines *obs.Counter
}

// node is the mechanism both tree levels share: a set of watches on one
// simulation domain, each climbing down → restart (backed off, jittered,
// behind the breaker) → quarantine. Subfarm nodes and the farm root differ
// only in the watches they hold and what they escalate to.
type node struct {
	cfg  Config
	s    *sim.Simulator
	name string // "<subfarm>" or "root": gauge and metric names

	// sc journals watch transitions; tree journals escalations. Both are
	// bound to this node's own domain stream, so events from different
	// nodes merge by (T, shard, seq) and no two domains share a ring.
	sc, tree *obs.Scope

	watches []*watch
	// watchCounts is the build-time census per kind; /healthz reads it to
	// detect expected-but-absent kinds.
	watchCounts map[string]int

	// Node-wide counters; restarts and quarantines are a watch's default.
	missesTotal, restarts, quarantines *obs.Counter

	history []string // escalation record: "lockdown@8m1s <reason>", ...
}

// note appends what happened, stamped with the node's clock, to its history.
func (n *node) note(what, detail string) {
	n.history = append(n.history, what+"@"+n.s.Now().String()+detail)
}

// History returns the node's escalation history, identical across worker
// counts for a (seed, profile) pair.
func (n *node) History() []string { return append([]string(nil), n.history...) }

// add registers a watch — healthy, generic vocabulary, a fresh ladder, its
// health gauge.
func (n *node) add(w *watch) *watch {
	w.healthy = true
	w.events, w.label, w.noun = endpointEvents, string(w.kind)+":"+w.id, string(w.kind)
	w.ladder = sim.NewLadder(n.s, sim.LadderConfig{
		Backoff: restartBackoff, BackoffMax: restartBackoffMax, Jitter: restartJitter,
		Window: breakerWindow, Threshold: n.cfg.BreakerThreshold,
	})
	if w.restarts == nil {
		w.restarts = n.restarts
	}
	if w.quarantines == nil {
		w.quarantines = n.quarantines
	}
	w.gauge = n.s.Obs().Reg.Gauge(HealthGaugeName(w.kind, n.name, w.id))
	w.gauge.Set(1)
	n.watches = append(n.watches, w)
	n.watchCounts[string(w.kind)]++
	return w
}

// WatchCounts reports how many things of each kind this node watches.
// Fixed once wiring completes; read-only, from any goroutine.
func (n *node) WatchCounts() map[string]int { return n.watchCounts }

// tick probes every probe-fed, non-quarantined watch, in attach order,
// and arms the per-probe deadline.
func (n *node) tick() {
	for _, w := range n.watches {
		if w.probe == nil || w.quarantined {
			continue
		}
		w.seq++
		w.replied = false
		seq := w.seq
		w.probe(seq)
		n.s.Schedule(heartbeatTimeout, func() { n.checkDeadline(w, seq) })
	}
}

// probeReply handles a live probe answer.
func (n *node) probeReply(w *watch, seq uint64) {
	if w.quarantined || seq != w.seq {
		return // stale echo from before a restart; ignore
	}
	w.replied = true
	w.misses = 0
	if !w.healthy {
		n.markUp(w, "")
	}
}

// checkDeadline runs heartbeatTimeout after each probe: a missing echo is
// one miss, K consecutive misses are bad news. The miss count resets at
// each threshold crossing so a thing that crashes again mid-recovery earns
// a fresh (backed-off) restart instead of being forgotten.
func (n *node) checkDeadline(w *watch, seq uint64) {
	if w.quarantined || seq != w.seq || w.replied {
		return
	}
	w.misses++
	n.missesTotal.Inc()
	if w.misses < missThreshold {
		return
	}
	w.misses = 0
	n.reportDown(w, "")
}

// noteReading folds one progress reading into a polled watch: any mark
// advance (or inactivity) is health; an active mark frozen past the
// watch's budget is bad news.
func (n *node) noteReading(w *watch, mark int, active bool) {
	now := n.s.Now()
	if !active || mark != w.lastMark {
		w.lastMark, w.lastChange = mark, now
		if !w.healthy {
			n.markUp(w, "")
		}
		return
	}
	if w.healthy && now-w.lastChange > w.budget {
		n.reportDown(w, "")
	}
}

// reportDown is the one door for bad news, whatever its source (by names a
// reporting node). A healthy watch goes down; a watch-only one still down
// reminds whoever holds restart authority; a restartable one with no
// attempt pending climbs its ladder.
func (n *node) reportDown(w *watch, by string) {
	if w.quarantined {
		return
	}
	if w.healthy {
		w.healthy = false
		w.downAt = n.s.Now()
		n.journal(w, down, by)
	} else if w.restart == nil && w.after != nil {
		w.after(down, by)
	}
	if w.restart != nil && !w.restartPend {
		n.armRestart(w)
	}
}

// markUp records recovery — only ever on evidence (a probe answer, an
// advancing mark, a report), never assumed after a restart.
func (n *node) markUp(w *watch, by string) {
	w.healthy = true
	w.ladder.Reset()
	n.journal(w, up, by)
}

// armRestart takes the next rung: quarantine if the breaker has tripped,
// otherwise one restart attempt after the ladder's next delay.
func (n *node) armRestart(w *watch) {
	if w.ladder.Tripped() {
		w.quarantined = true
		w.quarantines.Inc()
		n.journal(w, quarantined, "")
		return
	}
	if w.immediate {
		n.doRestart(w)
		return
	}
	w.restartPend = true
	n.s.Schedule(w.ladder.Delay(), func() { n.doRestart(w) })
}

// doRestart charges one attempt against the breaker and runs the watch's
// repair. Health is NOT assumed — only its source marks the watch up.
func (n *node) doRestart(w *watch) {
	w.restartPend = false
	if w.quarantined || w.healthy {
		return
	}
	w.ladder.Record()
	w.restarts.Inc()
	n.journal(w, restarted, w.restartNote)
	w.restart()
}

// journal writes one transition everywhere it is recorded: health gauge,
// the node's journal scope and — for down and quarantined — a
// flight-recorder dump, with the watch's hooks around it.
func (n *node) journal(w *watch, t transition, by string) {
	alarm := t == down || t == quarantined
	note := ""
	if alarm {
		w.gauge.Set(0)
		if w.before != nil {
			note = w.before(t)
		}
	} else if t == up {
		w.gauge.Set(1)
	}
	n.sc.Emit(obs.Event{Type: w.events[t], N: w.n, SrcIP: uint32(w.addr), Detail: w.label + by})
	if alarm {
		n.sc.Dump(w.noun + " " + w.id + " " + string(t) + by + note)
	}
	if w.after != nil && t != restarted {
		w.after(t, by)
	}
}
