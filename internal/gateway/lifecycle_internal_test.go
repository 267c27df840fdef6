package gateway

import (
	"reflect"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// A flow has one lifecycle (DESIGN.md §3g): whatever ends it — idle sweep,
// LRU shed, endpoint fail-close, lockdown, the await-verdict deadline — goes
// through Flow.reset and Flow.close. These tests pin the state × cause
// table: which legs see an RST and in which order, what is metered, that a
// flow is closed exactly once, and that a fail-close sends nothing outward.

// eventLog is a journal sink that keeps every event.
type eventLog struct{ events []obs.Event }

func (l *eventLog) WriteEvent(e obs.Event) error {
	l.events = append(l.events, e)
	return nil
}

// closesAt runs s to at and reports whether f closed exactly then: open
// until the instant before, closed at it.
func closesAt(s *sim.Simulator, f *Flow, at time.Duration) bool {
	s.RunUntil(at - 1)
	if f.state == fsClosed {
		return false
	}
	s.RunUntil(at)
	return f.state == fsClosed
}

func (l *eventLog) count(typ string) int {
	n := 0
	for _, e := range l.events {
		if e.Type == typ {
			n++
		}
	}
	return n
}

// lifecycleRig is a lifetimeRig whose neighbours all resolve, with one
// inmate (10.0.0.5, VLAN 12), the journal captured, and every frame the
// gateway emits logged in transmit order: "init", "cs" or "resp" for an RST
// toward that leg, anything else spelled out.
type lifecycleRig struct {
	*lifetimeRig
	journal *eventLog
	wire    []string
	// lastInitRST is the newest reset sent to the initiator.
	lastInitRST *netstack.Packet
}

var (
	lcInit  = netstack.MustParseAddr("10.0.0.5")
	lcResp  = netstack.MustParseAddr("198.51.100.1")
	lcResp2 = netstack.MustParseAddr("198.51.100.2") // a second destination of one socket
	lcPeer  = netstack.MustParseAddr("10.0.0.6")     // a second inmate, for REDIRECT
)

const lcVLAN, lcPeerVLAN = 12, 13

func newLifecycleRig(t *testing.T) *lifecycleRig {
	rig := &lifecycleRig{journal: &eventLog{}}
	rig.lifetimeRig = newLifetimeRig(t)
	r := rig.r
	r.awaitVerdictTimeout = 10 * time.Second
	rig.s.Obs().Journal.SetSink(rig.journal)
	r.learnInmate(lcVLAN, lcInit, inmateMAC(lcVLAN))
	r.vlanARP[vlanAddr{uint32(r.cfg.ContainmentCluster[0].VLAN), r.cfg.ContainmentCluster[0].IP}] = csMAC
	rig.g.outARP[lcResp], rig.g.outARP[lcResp2] = extMAC, extMAC
	note := func(leg string, p *netstack.Packet) {
		if p.TCP == nil || p.TCP.Flags&netstack.FlagRST == 0 {
			leg += ":" + p.String()
		}
		rig.wire = append(rig.wire, leg)
	}
	r.AddTap(func(p *netstack.Packet) {
		switch {
		case p.IP == nil:
		case p.IP.Dst == lcInit:
			note("init", p)
			rig.lastInitRST = keptCopy(p)
		case p.IP.Dst == r.cfg.ContainmentCluster[0].IP:
			note("cs", p)
		}
	})
	rig.g.AddUpstreamTap(func(frame []byte) {
		p, err := netstack.ParseFrame(append([]byte(nil), frame...))
		if err != nil {
			t.Fatalf("gateway emitted an outside frame that does not parse: %v", err)
		}
		if p.Eth.Src == GatewayMAC {
			note("resp", p)
		}
	})
	return rig
}

// Flow states a lifecycle case starts from.
const (
	lcAwaitPre = iota // TCP, SYN redirected, SYN-ACK not yet relayed
	lcAwaitPost
	lcEstablishing
	lcSplice
	lcRewrite
	lcDropped
	lcUDPAwait
	lcUDPSplice
	lcStates
)

var (
	lcStateNames = [lcStates]string{"await-pre-synack", "await-post-synack", "establishing", "splice", "rewrite-proxy", "dropped", "udp-await", "udp-splice"}
	lcFlowStates = [lcStates]flowState{fsAwaitVerdict, fsAwaitVerdict, fsEstablishing, fsSplice, fsRewriteProxy, fsDropped, fsAwaitVerdict, fsSplice}
)

// flowIn puts a flow in the given state the way the datapath would have,
// from initiator port sport, and forgets the wire and journal chatter of
// getting there.
func (rig *lifecycleRig) flowIn(state int, sport uint16) *Flow {
	r := rig.r
	proto := uint8(netstack.ProtoTCP)
	if state == lcUDPAwait || state == lcUDPSplice {
		proto = netstack.ProtoUDP
	}
	f := r.newFlow(netstack.FlowKey{
		VLAN: lcVLAN, SrcIP: lcInit, SrcPort: sport, DstIP: lcResp, DstPort: 80, Proto: proto,
	}, lcVLAN, false)
	f.initISS, f.initNextSeq = 7000, 7001
	if state != lcAwaitPre && proto == netstack.ProtoTCP {
		f.haveCSISN, f.csISN, f.csNextSeq = true, 1000, 1001
	}
	if state == lcDropped {
		f.applyDrop("malformed response shim") // arms the linger, as a real drop does
	}
	f.state = lcFlowStates[state]
	switch state {
	case lcEstablishing, lcSplice, lcUDPSplice:
		f.rec.Verdict = shim.Forward
		f.actualIP, f.actualPort = lcResp, 80
	case lcRewrite:
		f.rec.Verdict = shim.Rewrite
	}
	switch state {
	case lcEstablishing, lcSplice:
		rt, ok := f.responderRoute()
		if !ok {
			panic("lifecycle rig: responder unroutable")
		}
		f.sender = newGwSender(f, rt)
		f.targetISN, f.respNextSeq = 500, 501
		f.seqDelta = f.csISN - f.targetISN
	case lcUDPSplice:
		r.register(f, f.keys()[keyActual])
	}
	rig.wire, rig.lastInitRST, rig.journal.events = nil, nil, nil
	return f
}

func TestFlowLifecycleTable(t *testing.T) {
	type outcome struct {
		wire    []string // RSTs by leg, in transmit order
		counter string   // "" when the cause leaves the flow to something else
		closed  bool
	}
	untouched := outcome{}
	lingered := outcome{closed: true} // a dropped flow's own linger closes it
	causes := []struct {
		name  string
		apply func(rig *lifecycleRig)
		want  [lcStates]outcome
	}{
		{"idle sweep", func(rig *lifecycleRig) { rig.s.RunFor(spliceIdleTimeout + time.Minute) }, [lcStates]outcome{
			lcAwaitPre:     {[]string{"init", "cs"}, "flows_failclosed", true},
			lcAwaitPost:    {[]string{"init", "cs"}, "flows_failclosed", true},
			lcEstablishing: {[]string{"resp", "init"}, "sweep_reaped", true},
			lcSplice:       {[]string{"resp", "init"}, "sweep_reaped", true},
			lcRewrite:      {[]string{"cs", "init"}, "sweep_reaped", true},
			lcDropped:      lingered,
			lcUDPAwait:     {nil, "flows_failclosed", true},
			lcUDPSplice:    {nil, "sweep_reaped", true},
		}},
		{"LRU shed", func(rig *lifecycleRig) { rig.r.shedLRU() }, [lcStates]outcome{
			lcAwaitPre:     {[]string{"init", "cs"}, "flows_shed", true},
			lcAwaitPost:    {[]string{"init", "cs"}, "flows_shed", true},
			lcEstablishing: {[]string{"resp", "init"}, "flows_shed", true},
			lcSplice:       {[]string{"resp", "init"}, "flows_shed", true},
			lcRewrite:      {[]string{"cs", "init"}, "flows_shed", true},
			lcDropped:      {nil, "flows_shed", true},
			lcUDPAwait:     {nil, "flows_shed", true},
			lcUDPSplice:    {nil, "flows_shed", true},
		}},
		{"FailCloseEndpoint", func(rig *lifecycleRig) { rig.r.FailCloseEndpoint(0, "containment server down") }, [lcStates]outcome{
			lcAwaitPre:     {[]string{"init", "cs"}, "flows_failclosed", true},
			lcAwaitPost:    {[]string{"init", "cs"}, "flows_failclosed", true},
			lcEstablishing: untouched,
			lcSplice:       untouched,
			lcRewrite:      {[]string{"cs", "init"}, "flows_failclosed", true},
			lcDropped:      untouched,
			lcUDPAwait:     {nil, "flows_failclosed", true},
			lcUDPSplice:    untouched,
		}},
		{"SetLockdown", func(rig *lifecycleRig) { rig.r.SetLockdown(true, "containment plane lost") }, [lcStates]outcome{
			lcAwaitPre:     {[]string{"init", "cs"}, "flows_failclosed", true},
			lcAwaitPost:    {[]string{"init", "cs"}, "flows_failclosed", true},
			lcEstablishing: {[]string{"init"}, "flows_failclosed", true},
			lcSplice:       {[]string{"init"}, "flows_failclosed", true},
			lcRewrite:      {[]string{"cs", "init"}, "flows_failclosed", true},
			lcDropped:      {nil, "", true}, // the Drop verdict already holds: closed in place
			lcUDPAwait:     {nil, "flows_failclosed", true},
			lcUDPSplice:    {nil, "flows_failclosed", true},
		}},
		{"await-verdict deadline", func(rig *lifecycleRig) { rig.s.RunFor(45 * time.Second) }, [lcStates]outcome{
			lcAwaitPre:     {[]string{"init", "cs"}, "flows_failclosed", true},
			lcAwaitPost:    {[]string{"init", "cs"}, "flows_failclosed", true},
			lcEstablishing: untouched,
			lcSplice:       untouched,
			lcRewrite:      untouched,
			lcDropped:      lingered,
			lcUDPAwait:     {nil, "flows_failclosed", true},
			lcUDPSplice:    untouched,
		}},
	}
	for _, cause := range causes {
		for state, want := range cause.want {
			t.Run(cause.name+"/"+lcStateNames[state], func(t *testing.T) {
				rig := newLifecycleRig(t)
				r := rig.r
				f := rig.flowIn(state, 4000)
				counters := map[string]*obs.Counter{
					"sweep_reaped": r.SweepReaped, "flows_shed": r.FlowsShed, "flows_failclosed": r.FlowsFailClosed,
				}

				cause.apply(rig)
				rig.settle()

				if !reflect.DeepEqual(rig.wire, want.wire) {
					t.Errorf("wire saw %v, want RSTs %v", rig.wire, want.wire)
				}
				for name, c := range counters {
					wantN := uint64(0)
					if name == want.counter {
						wantN = 1
					}
					if got := c.Value(); got != wantN {
						t.Errorf("%s = %d, want %d", name, got, wantN)
					}
				}
				if got := f.state == fsClosed; got != want.closed {
					t.Errorf("closed = %v (state %v), want %v", got, f.state, want.closed)
				}
				if want.counter == "flows_failclosed" && len(rig.outside.frames) != 0 {
					t.Errorf("fail-close put %d frame(s) on the outside port", len(rig.outside.frames))
				}
				if rig.lastInitRST != nil {
					// The initiator reset continues the CS's sequence space once
					// the SYN-ACK was relayed; before that it acks the SYN and
					// leaves a tombstone for the retransmissions (which the
					// idle-sweep case runs long enough to see expire again).
					rst, tombs := rig.lastInitRST.TCP, 0
					wantSeq := f.csISN + 1
					if state == lcAwaitPre {
						wantSeq = 0
						if rig.s.Now() < time.Minute {
							tombs = 1
						}
					}
					if rst.Seq != wantSeq || rst.Ack != f.initNextSeq || rst.Flags != netstack.FlagRST|netstack.FlagACK || rst.Window != 0 {
						t.Errorf("initiator RST seq=%d ack=%d flags=%#x window=%d, want seq=%d ack=%d RST|ACK window 0",
							rst.Seq, rst.Ack, rst.Flags, rst.Window, wantSeq, f.initNextSeq)
					}
					if len(r.synTombs) != tombs {
						t.Errorf("%d SYN tombstones, want %d", len(r.synTombs), tombs)
					}
				}

				// Whatever the cause left alone, the sweep horizon ends: one
				// flow.closed, every index empty, no timer left armed.
				rig.s.RunFor(spliceIdleTimeout + time.Minute)
				if f.state != fsClosed {
					t.Errorf("flow not closed at the sweep horizon (state %v)", f.state)
				}
				if n := rig.journal.count(obs.EvFlowClosed); n != 1 {
					t.Errorf("%d flow.closed events, want 1", n)
				}
				if n := len(r.index); n != 0 {
					t.Errorf("%d flow-index entries left", n)
				}
				if f.linger.Pending() {
					t.Error("close left the linger timer armed")
				}
			})
		}
	}
}

// The flow closes at the earliest deadline any scheduleClose call asked
// for, whichever order the calls came in, and a closed flow has no timer
// pending.
func TestLingerClosesAtEarliestDeadline(t *testing.T) {
	for _, delays := range [][]time.Duration{
		{10 * time.Second, time.Second},
		{time.Second, 10 * time.Second},
		{5 * time.Second, 5 * time.Second},
	} {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcSplice, 4000)
		start, idle := rig.s.Now(), rig.s.Pending()
		earliest := delays[0]
		for _, d := range delays {
			f.scheduleClose(d)
			if d < earliest {
				earliest = d
			}
		}
		if got := rig.s.Pending(); got != idle+1 {
			t.Errorf("%v: %d events pending for the linger, want 1", delays, got-idle)
		}
		if !closesAt(rig.s, f, start+earliest) {
			t.Errorf("%v: state %v at %v, want closed at %v and not before", delays, f.state, rig.s.Now()-start, earliest)
		}
		rig.s.RunFor(20 * time.Second)
		if got := rig.s.Pending(); got != idle || f.linger.Pending() {
			t.Errorf("%v: %d events pending after the close, want %d", delays, got, idle)
		}
	}
}

// Segments that keep arriving after both FINs do not each plant a linger
// event: the pending-event count stays where the first one left it, and a
// close from another cause takes the timer out with it.
func TestLingerDoesNotGrowWithSegments(t *testing.T) {
	rig := newSpliceRig(t)
	f := rig.f
	f.finInit = true
	seq := f.targetISN + 1
	rig.outside.port.SendOwned(rig.respFrame(netstack.FlagFIN|netstack.FlagACK, seq, nil))
	rig.settle()
	if !f.finResp || !f.linger.Pending() {
		t.Fatalf("responder FIN seen = %v, linger armed = %v", f.finResp, f.linger.Pending())
	}
	closeAt, pending := f.lingerAt, rig.s.Pending()
	if closeAt <= 10*time.Second || closeAt > rig.s.Now()+10*time.Second {
		t.Fatalf("linger due at %v, want 10 s after the FIN arrived", closeAt)
	}
	for i := 0; i < 20; i++ {
		rig.s.RunFor(100 * time.Millisecond)
		rig.outside.port.SendOwned(rig.respFrame(netstack.FlagFIN|netstack.FlagACK, seq, nil)) // retransmitted FIN
		rig.settle()
		if got := rig.s.Pending(); got != pending {
			t.Fatalf("after %d more segments %d events are pending, want %d", i+1, got, pending)
		}
	}
	if !closesAt(rig.s, f, closeAt) {
		t.Errorf("state %v at %v, want closed 10 s after the first FIN (%v) and not before", f.state, rig.s.Now(), closeAt)
	}

	rig = newSpliceRig(t)
	idle := rig.s.Pending()
	rig.f.scheduleClose(10 * time.Second)
	rig.f.close("initiator reset")
	if rig.f.linger.Pending() || rig.s.Pending() != idle {
		t.Errorf("close left the linger armed (%d events pending, want %d)", rig.s.Pending(), idle)
	}
}

// An originated packet's headers — Packet, IP, transport — are the router's
// own and cost nothing; putting it on the wire costs its frame buffer and
// nothing else, the request shim included. A datagram relayed to the
// containment server also pays for its shim-wrapped copy.
func TestOriginatedPacketAllocs(t *testing.T) {
	rig := newLifecycleRig(t)
	f := rig.flowIn(lcAwaitPost, 4000)
	rig.r.taps = nil // the rig's taps clone; the datapath's do not
	payload := make([]byte, 100)
	var sink *netstack.Packet
	for _, tc := range []struct {
		name string
		fn   func()
		want float64
	}{
		{"newSegment", func() { sink = rig.r.newSegment(1, 2, 3, 4, 5, 6, netstack.FlagACK, payload) }, 0},
		{"newDatagram", func() { sink = rig.r.newDatagram(1, 2, 3, 4, payload) }, 0},
		{"segment to the wire", func() { f.segmentToInitiator(1, 2, netstack.FlagACK|netstack.FlagPSH, payload); rig.s.Step() }, 1},
		{"reset to the wire", func() { f.rstCS(); rig.s.Step() }, 1},
		{"request shim to the wire", func() { f.injectRequestShim(); rig.s.Step() }, 1},
		{"datagram to the wire", func() { f.datagramToInitiator(payload); rig.s.Step() }, 1},
		// The one exception: a datagram to the containment server is copied
		// behind its request shim before it is framed.
		{"shim-wrapped datagram to the wire", func() { f.sendUDPToCS(payload); rig.s.Step() }, 2},
	} {
		tc.fn() // warm the port's delivery free list
		if got := testing.AllocsPerRun(50, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}
	_ = sink
}

// A shed victim that never got its SYN-ACK is reset and tombstoned like any
// other flow torn down before the handshake: its retransmitted SYN must not
// be admitted as a second flow under the same ISN.
func TestShedPreSynAckVictimResetAndTombstoned(t *testing.T) {
	rig := newLifetimeRig(t)
	r := rig.r
	r.maxFlows = 3
	r.vlanARP[vlanAddr{uint32(r.cfg.ContainmentCluster[0].VLAN), r.cfg.ContainmentCluster[0].IP}] = csMAC
	var toInit []*netstack.Packet
	r.AddTap(func(p *netstack.Packet) {
		if p.IP != nil && p.IP.Dst == lcInit {
			toInit = append(toInit, keptCopy(p))
		}
	})
	syn := func(sport uint16, isn uint32) {
		rig.trunk.port.Send(synFrom(lcVLAN, lcInit, sport, isn))
		rig.s.RunFor(time.Second) // distinct lastActivity per flow
	}
	for i := 0; i < 3; i++ {
		syn(uint16(5000+i), uint32(1000*(i+1)))
	}
	if got := r.FlowsCreated.Value(); got != 3 || r.ActiveFlows() != 3 {
		t.Fatalf("flows_created = %d, active = %d at the bound of 3", got, r.ActiveFlows())
	}

	syn(5003, 4000) // over the bound: port 5000's flow, still pre-SYN-ACK, is shed
	if r.FlowsShed.Value() != 1 || r.ActiveFlows() != 3 {
		t.Fatalf("flows_shed = %d, active = %d", r.FlowsShed.Value(), r.ActiveFlows())
	}
	if len(toInit) != 1 {
		t.Fatalf("%d packets reached the initiator VLAN, want the victim's reset", len(toInit))
	}
	rst := toInit[0]
	if rst.TCP == nil || rst.TCP.Flags != netstack.FlagRST|netstack.FlagACK ||
		rst.TCP.DstPort != 5000 || rst.TCP.Seq != 0 || rst.TCP.Ack != 1001 {
		t.Fatalf("victim got %v, want RST|ACK seq 0 ack 1001 to port 5000", rst)
	}

	syn(5000, 1000) // the victim's SYN retransmission, inside synTombstoneTTL
	if got := r.FlowsCreated.Value(); got != 4 {
		t.Errorf("flows_created = %d after the retransmitted SYN, want 4: it was re-admitted", got)
	}
	syn(5000, 9999) // a new connection from the same port is a new flow
	if got := r.FlowsCreated.Value(); got != 5 {
		t.Errorf("flows_created = %d after a fresh ISN, want 5", got)
	}
}
