package containment

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// Trigger is an activity trigger (§5.4, Fig. 6): a flow pattern, a time
// window, a comparison against a flow count, and a life-cycle action. A
// typical policy — "revert and reinfect the inmate once the containment
// server has observed no outbound activity for 30 minutes" — is written
//
//	*:25/tcp / 30min < 1 -> revert
//
// and a flood guard — "terminate an inmate sending a particular recipient
// more than a certain number of connection requests per minute" — as
//
//	*:25/tcp / 1min > 600 -> terminate
type Trigger struct {
	HostPat   string // "*", "*.*.*.*", or a literal IPv4 address
	Port      uint16 // 0 matches any port
	Proto     uint8  // netstack.ProtoTCP / ProtoUDP; 0 matches any
	Window    time.Duration
	LessThan  bool // true: fire when count < Threshold; false: count > Threshold
	Threshold int
	Action    string // revert | reboot | terminate
}

// ParseTrigger parses the Fig. 6 trigger syntax.
func ParseTrigger(s string) (*Trigger, error) {
	arrow := strings.Index(s, "->")
	if arrow < 0 {
		return nil, fmt.Errorf("containment: trigger %q missing '->'", s)
	}
	action := strings.TrimSpace(s[arrow+2:])
	switch action {
	case "revert", "reboot", "terminate":
	default:
		return nil, fmt.Errorf("containment: unknown trigger action %q", action)
	}
	lhs := strings.TrimSpace(s[:arrow])
	parts := strings.Split(lhs, "/")
	if len(parts) != 3 {
		return nil, fmt.Errorf("containment: trigger %q wants pattern/proto / window cmp n", s)
	}
	hostPort := strings.TrimSpace(parts[0])
	colon := strings.LastIndex(hostPort, ":")
	if colon < 0 {
		return nil, fmt.Errorf("containment: trigger pattern %q missing port", hostPort)
	}
	t := &Trigger{HostPat: strings.TrimSpace(hostPort[:colon]), Action: action}
	portStr := strings.TrimSpace(hostPort[colon+1:])
	if portStr != "*" {
		p, err := strconv.Atoi(portStr)
		if err != nil || p < 0 || p > 65535 {
			return nil, fmt.Errorf("containment: bad trigger port %q", portStr)
		}
		t.Port = uint16(p)
	}
	switch proto := strings.TrimSpace(parts[1]); proto {
	case "tcp":
		t.Proto = netstack.ProtoTCP
	case "udp":
		t.Proto = netstack.ProtoUDP
	case "*":
		t.Proto = 0
	default:
		return nil, fmt.Errorf("containment: bad trigger protocol %q", proto)
	}
	cond := strings.Fields(strings.TrimSpace(parts[2]))
	if len(cond) != 3 {
		return nil, fmt.Errorf("containment: bad trigger condition %q", parts[2])
	}
	w, err := ParseWindow(cond[0])
	if err != nil {
		return nil, err
	}
	t.Window = w
	switch cond[1] {
	case "<":
		t.LessThan = true
	case ">":
		t.LessThan = false
	default:
		return nil, fmt.Errorf("containment: bad trigger comparator %q", cond[1])
	}
	n, err := strconv.Atoi(cond[2])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("containment: bad trigger threshold %q", cond[2])
	}
	t.Threshold = n
	return t, nil
}

// ParseWindow parses "30min", "1h", "90s": a positive whole number of
// units that fits a time.Duration.
func ParseWindow(s string) (time.Duration, error) {
	for _, suffix := range []struct {
		str string
		d   time.Duration
	}{{"min", time.Minute}, {"h", time.Hour}, {"s", time.Second}, {"m", time.Minute}} {
		if strings.HasSuffix(s, suffix.str) {
			n, err := strconv.Atoi(strings.TrimSuffix(s, suffix.str))
			if err != nil || n <= 0 || int64(n) > math.MaxInt64/int64(suffix.d) {
				return 0, fmt.Errorf("containment: bad window %q", s)
			}
			return time.Duration(n) * suffix.d, nil
		}
	}
	return 0, fmt.Errorf("containment: bad window %q", s)
}

// Matches reports whether a flow event matches the trigger pattern.
func (t *Trigger) Matches(dst netstack.Addr, port uint16, proto uint8) bool {
	if t.Proto != 0 && proto != t.Proto {
		return false
	}
	if t.Port != 0 && port != t.Port {
		return false
	}
	switch t.HostPat {
	case "*", "*.*.*.*":
		return true
	default:
		a, err := netstack.ParseAddr(t.HostPat)
		return err == nil && a == dst
	}
}

// String renders the trigger back in config syntax, which ParseTrigger
// reads back to the same trigger: the window in whole minutes when it is
// one, else in seconds (a parsed window is always whole seconds).
func (t *Trigger) String() string {
	port := "*"
	if t.Port != 0 {
		port = strconv.Itoa(int(t.Port))
	}
	proto := "*"
	if t.Proto != 0 {
		proto = netstack.ProtoName(t.Proto)
	}
	cmp := ">"
	if t.LessThan {
		cmp = "<"
	}
	window := fmt.Sprintf("%dmin", t.Window/time.Minute)
	if t.Window%time.Minute != 0 {
		window = fmt.Sprintf("%ds", t.Window/time.Second)
	}
	return fmt.Sprintf("%s:%s/%s / %s %s %d -> %s",
		t.HostPat, port, proto, window, cmp, t.Threshold, t.Action)
}

// TriggerEngine evaluates triggers over per-inmate flow-event histories.
type TriggerEngine struct {
	sim  *sim.Simulator
	emit func(action string, vlan uint16)

	rules  []vlanTrigger
	events map[uint16][]flowEvent // per VLAN
	// lastFired dampens refiring: a rule stays quiet for one window after
	// firing (the inmate is being reverted; give it time to come back).
	lastFired map[ruleKey]time.Duration

	// sc, when set, journals each firing and dumps the scope's flight
	// recorder so the events leading up to the trigger are preserved.
	sc         *obs.Scope
	firedCount *obs.Counter
}

type vlanTrigger struct {
	lo, hi uint16
	t      *Trigger
}

type ruleKey struct {
	vlan uint16
	idx  int
}

type flowEvent struct {
	at    time.Duration
	dst   netstack.Addr
	port  uint16
	proto uint8
}

// NewTriggerEngine creates the engine; it evaluates rules once per minute.
// emit receives fired actions (the server wires it to the life-cycle sink).
func NewTriggerEngine(s *sim.Simulator, emit func(action string, vlan uint16)) *TriggerEngine {
	e := &TriggerEngine{
		sim: s, emit: emit,
		events:    make(map[uint16][]flowEvent),
		lastFired: make(map[ruleKey]time.Duration),
	}
	s.Every(time.Minute, e.evaluate)
	return e
}

// SetScope wires the engine to a journal scope (typically the subfarm's):
// firings are journalled as policy.trigger_fired, counted under
// cs.triggers_fired, and snapshot the scope's flight recorder.
func (e *TriggerEngine) SetScope(sc *obs.Scope) {
	e.sc = sc
	e.firedCount = e.sim.Obs().Reg.Counter("cs.triggers_fired")
}

// AddRule applies a trigger to an inclusive VLAN range. Rules must be added
// before traffic: the engine keeps history only for VLANs some rule covers,
// so a VLAN's flows from before its first rule are not counted.
func (e *TriggerEngine) AddRule(lo, hi uint16, t *Trigger) {
	e.rules = append(e.rules, vlanTrigger{lo, hi, t})
}

// Observe records a flow event (called by the server on every decision).
func (e *TriggerEngine) Observe(req *shim.Request, proto uint8) {
	e.ObserveFlow(req.VLAN, req.RespIP, req.RespPort, proto)
}

// ObserveFlow records a flow event with an explicit protocol, if a rule
// covers its VLAN: evaluate reads no other history.
func (e *TriggerEngine) ObserveFlow(vlan uint16, dst netstack.Addr, port uint16, proto uint8) {
	for _, r := range e.rules {
		if vlan >= r.lo && vlan <= r.hi {
			e.events[vlan] = append(e.events[vlan], flowEvent{at: e.sim.Now(), dst: dst, port: port, proto: proto})
			return
		}
	}
}

func (e *TriggerEngine) evaluate() {
	now := e.sim.Now()
	// Absence rules must also fire for inmates that produced no events at
	// all; ensure every covered VLAN has an (empty) history entry.
	for _, r := range e.rules {
		if !r.t.LessThan {
			continue
		}
		for vlan := r.lo; vlan <= r.hi; vlan++ {
			if _, ok := e.events[vlan]; !ok {
				e.events[vlan] = nil
			}
		}
	}
	// Find the largest window to bound history trimming.
	var maxWin time.Duration
	for _, r := range e.rules {
		if r.t.Window > maxWin {
			maxWin = r.t.Window
		}
	}
	// Walk VLANs in order: firings journal and cross-post lifecycle actions,
	// so map iteration order here would leak into the event stream and break
	// replay determinism whenever several VLANs co-fire in one evaluation.
	vlans := make([]int, 0, len(e.events))
	for vlan := range e.events {
		vlans = append(vlans, int(vlan))
	}
	sort.Ints(vlans)
	for _, v := range vlans {
		vlan := uint16(v)
		evs := e.events[vlan]
		// Trim history older than the largest window.
		cut := 0
		for cut < len(evs) && now-evs[cut].at > maxWin {
			cut++
		}
		evs = evs[cut:]
		e.events[vlan] = evs

		for idx, r := range e.rules {
			if vlan < r.lo || vlan > r.hi {
				continue
			}
			key := ruleKey{vlan, idx}
			if last, ok := e.lastFired[key]; ok && now-last < r.t.Window {
				continue
			}
			count := 0
			for _, ev := range evs {
				if now-ev.at <= r.t.Window && r.t.Matches(ev.dst, ev.port, ev.proto) {
					count++
				}
			}
			fire := false
			if r.t.LessThan {
				// Absence rules only make sense once a full window of
				// observation has elapsed.
				if now >= r.t.Window {
					fire = count < r.t.Threshold
				}
			} else {
				fire = count > r.t.Threshold
			}
			if fire {
				e.lastFired[key] = now
				if e.sc != nil {
					e.firedCount.Inc()
					e.sc.Emit(obs.Event{
						Type: obs.EvTriggerFired, VLAN: vlan, Detail: r.t.Action,
					})
					// A trigger is the farm saying "something is off": keep
					// the events that led here for the post-mortem.
					e.sc.Dump("trigger fired: " + r.t.String())
				}
				if e.emit != nil {
					e.emit(r.t.Action, vlan)
				}
			}
		}
	}
}
