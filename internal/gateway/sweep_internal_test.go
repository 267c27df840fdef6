package gateway

import (
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

func newSweepRig(t *testing.T) (*sim.Simulator, *Router) {
	t.Helper()
	s := sim.New(1)
	g := New(s)
	r := g.AddRouterIn(g.Sim, RouterConfig{
		Name:   "sweeprig",
		VLANLo: 10, VLANHi: 20,
		ServiceVLANs:       []uint16{2},
		InternalPrefix:     netstack.MustParsePrefix("10.0.0.0/16"),
		RouterIP:           netstack.MustParseAddr("10.0.0.1"),
		ServicePrefix:      netstack.MustParsePrefix("10.3.0.0/16"),
		ServiceRouterIP:    netstack.MustParseAddr("10.3.0.254"),
		GlobalPool:         netstack.MustParsePrefix("192.0.2.0/24"),
		GlobalPoolStart:    16,
		ContainmentCluster: []ContainmentEndpoint{{VLAN: 2, IP: netstack.MustParseAddr("10.3.0.1"), Port: 6666}},
		NonceIP:            netstack.MustParseAddr("10.4.0.1"),
	})
	return s, r
}

// A flow stalled in fsEstablishing (its sender stopped, or the dial never
// completed) must be reaped by the periodic sweep, not pinned forever.
func TestSweepExpiresEstablishingFlows(t *testing.T) {
	s, r := newSweepRig(t)
	key := netstack.FlowKey{
		VLAN:  12,
		SrcIP: netstack.MustParseAddr("10.0.0.5"), SrcPort: 1234,
		DstIP: netstack.MustParseAddr("198.51.100.1"), DstPort: 80,
		Proto: netstack.ProtoTCP,
	}
	f := r.newFlow(key, 12, false)
	f.state = fsEstablishing
	if n := r.ActiveFlows(); n != 1 {
		t.Fatalf("ActiveFlows = %d before sweep", n)
	}
	s.RunFor(2 * time.Minute)
	if n := r.ActiveFlows(); n != 0 {
		t.Fatalf("establishing flow leaked: ActiveFlows = %d after 2m", n)
	}
	if !f.rec.Closed {
		t.Fatal("flow record not finalised")
	}
	if f.rec.Annotation != "flow expired" {
		t.Fatalf("annotation = %q", f.rec.Annotation)
	}
}

// An fsEstablishing flow whose inmate port died mid-handshake (the SYN was
// redirected, the containment server answered, and then the initiator went
// silent) must be swept at the establish timeout, with an RST sent toward
// the initiator impersonating the original responder so a revived inmate
// sees clean failure instead of a half-open connection.
func TestSweepEstablishingPortDownMidHandshake(t *testing.T) {
	s, r := newSweepRig(t)
	initIP := netstack.MustParseAddr("10.0.0.9")
	key := netstack.FlowKey{
		VLAN:  13,
		SrcIP: initIP, SrcPort: 2048,
		DstIP: netstack.MustParseAddr("198.51.100.3"), DstPort: 443,
		Proto: netstack.ProtoTCP,
	}
	// The gateway knows the inmate's MAC from NAT learning, so the RST can
	// be addressed without ARP.
	knowInmateMAC(r, 13, netstack.MAC{2, 0, 0, 0, 0, 9})

	var rsts []*netstack.Packet
	r.AddTap(func(p *netstack.Packet) {
		if p.TCP != nil && p.TCP.Flags&netstack.FlagRST != 0 && p.IP.Dst == initIP {
			rsts = append(rsts, p.Clone()) // kept past the tap call
		}
	})

	f := r.newFlow(key, 13, false)
	f.state = fsEstablishing
	f.haveCSISN = true
	f.csISN = 1000
	f.initNextSeq = 2001
	// ...and the inmate's access port goes down: no further packets arrive.

	s.RunFor(2 * time.Minute)
	if n := r.ActiveFlows(); n != 0 {
		t.Fatalf("half-open flow leaked: ActiveFlows = %d", n)
	}
	if !f.rec.Closed || f.rec.Annotation != "flow expired" {
		t.Fatalf("closed=%v annotation=%q", f.rec.Closed, f.rec.Annotation)
	}
	if len(rsts) == 0 {
		t.Fatal("no RST sent toward the initiator on sweep")
	}
	rst := rsts[0]
	if rst.IP.Src != key.DstIP || rst.TCP.SrcPort != key.DstPort || rst.TCP.DstPort != key.SrcPort {
		t.Fatalf("RST does not impersonate the original responder: %v:%d -> %v:%d",
			rst.IP.Src, rst.TCP.SrcPort, rst.IP.Dst, rst.TCP.DstPort)
	}
	if rst.TCP.Seq != f.csISN+1 {
		t.Fatalf("RST seq = %d, want csISN+1 = %d", rst.TCP.Seq, f.csISN+1)
	}
}

// Established (spliced) flows whose endpoints silently vanished must fall
// to the splice-idle sweep rather than pin the table forever.
func TestSweepReapsIdleSplice(t *testing.T) {
	s, r := newSweepRig(t)
	key := netstack.FlowKey{
		VLAN:  14,
		SrcIP: netstack.MustParseAddr("10.0.0.11"), SrcPort: 3333,
		DstIP: netstack.MustParseAddr("198.51.100.4"), DstPort: 80,
		Proto: netstack.ProtoTCP,
	}
	f := r.newFlow(key, 14, false)
	f.state = fsSplice
	f.haveCSISN = true

	s.RunFor(spliceIdleTimeout / 2)
	if n := r.ActiveFlows(); n != 1 {
		t.Fatalf("splice reaped too early: ActiveFlows = %d at half the idle timeout", n)
	}
	s.RunFor(spliceIdleTimeout)
	if n := r.ActiveFlows(); n != 0 {
		t.Fatalf("idle splice leaked: ActiveFlows = %d", n)
	}
	if f.rec.Annotation != "flow expired" {
		t.Fatalf("annotation = %q", f.rec.Annotation)
	}
}

// At the flow-table bound, a new flow sheds the least-recently-active
// entry instead of growing without limit, counting the eviction.
func TestShedLRUAtCap(t *testing.T) {
	s, r := newSweepRig(t)
	r.maxFlows = 3

	mkFlow := func(port uint16) *Flow {
		key := netstack.FlowKey{
			VLAN:  15,
			SrcIP: netstack.MustParseAddr("10.0.0.20"), SrcPort: port,
			DstIP: netstack.MustParseAddr("198.51.100.5"), DstPort: 80,
			Proto: netstack.ProtoTCP,
		}
		f := r.newFlow(key, 15, false)
		f.state = fsAwaitVerdict
		return f
	}

	flows := make([]*Flow, 0, 4)
	for i := 0; i < 3; i++ {
		flows = append(flows, mkFlow(uint16(5000+i)))
		s.RunFor(time.Second) // distinct lastActivity per flow
	}
	if n := r.ActiveFlows(); n != 3 {
		t.Fatalf("ActiveFlows = %d at cap", n)
	}

	flows = append(flows, mkFlow(5003)) // over the bound: oldest is shed
	if n := r.ActiveFlows(); n != 3 {
		t.Fatalf("ActiveFlows = %d after shed, want 3 (bounded)", n)
	}
	if got := r.FlowsShed.Value(); got != 1 {
		t.Fatalf("FlowsShed = %d, want 1", got)
	}
	victim, survivor := flows[0], flows[3]
	if victim.state != fsClosed && victim.state != fsDropped {
		t.Fatalf("LRU victim not torn down: state = %v", victim.state)
	}
	if victim.rec.Annotation != "shed under pressure" {
		t.Fatalf("victim annotation = %q", victim.rec.Annotation)
	}
	if survivor.state == fsClosed {
		t.Fatal("newest flow was shed instead of the LRU entry")
	}
}

// leg2Open re-registration (the containment server redialling leg 2 from a
// fresh ephemeral port) must replace the flow's leg-2 key, not add a second
// one, and closing the flow leaves the index empty.
func TestNonceLegOrphansReaped(t *testing.T) {
	_, r := newSweepRig(t)
	key := netstack.FlowKey{
		VLAN:  11,
		SrcIP: netstack.MustParseAddr("10.0.0.7"), SrcPort: 4321,
		DstIP: netstack.MustParseAddr("198.51.100.2"), DstPort: 25,
		Proto: netstack.ProtoTCP,
	}
	f := r.newFlow(key, 11, false)
	f.state = fsRewriteProxy

	csIP := netstack.MustParseAddr("10.3.0.1")
	leg2SYN := func(port uint16) *netstack.Packet {
		return &netstack.Packet{
			Eth: netstack.Ethernet{VLAN: 2, EtherType: netstack.EtherTypeIPv4},
			IP: &netstack.IPv4{TTL: 64, Protocol: netstack.ProtoTCP,
				Src: csIP, Dst: r.cfg.NonceIP},
			TCP: &netstack.TCP{SrcPort: port, DstPort: f.noncePort,
				Seq: 7, Flags: netstack.FlagSYN},
		}
	}
	f.leg2Open(leg2SYN(50001))
	f.leg2Open(leg2SYN(50002)) // redial from a fresh port
	if n := r.indexed[keyLeg2]; n != 1 || r.ActiveFlows() != 2 {
		t.Fatalf("stale leg-2 entry survived redial: %d leg-2 keys, ActiveFlows = %d", n, r.ActiveFlows())
	}
	if leg := f.leg2(); r.index[leg] != f || leg.port != 50002 {
		t.Fatalf("leg 2 registered at %v:%d, want the redial from 50002", leg.ip, leg.port)
	}
	f.close("done")
	if n := len(r.index); n != 0 {
		t.Fatalf("%d index entries left after the flow closed", n)
	}
}

// knowInmateMAC stands in for NAT learning: the router addresses an inmate
// VLAN's frames to mac without ARP, and nothing else is learned.
func knowInmateMAC(r *Router, vlan uint16, mac netstack.MAC) {
	s := r.slotOf(vlan)
	s.mac, s.hasMAC = mac, true
}
