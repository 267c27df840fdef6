package gateway

import (
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/shim"
)

// rstCollector taps the router and buckets RSTs by destination. It keeps
// what it is handed past the tap call, so it keeps clones.
func rstCollector(r *Router, initIP, csIP netstack.Addr) (toInit, toCS *[]*netstack.Packet) {
	var init, cs []*netstack.Packet
	r.AddTap(func(p *netstack.Packet) {
		if p.TCP == nil || p.TCP.Flags&netstack.FlagRST == 0 {
			return
		}
		switch p.IP.Dst {
		case initIP:
			init = append(init, keptCopy(p))
		case csIP:
			cs = append(cs, keptCopy(p))
		}
	})
	return &init, &cs
}

// A flow stuck in fsAwaitVerdict past the await-verdict deadline — its
// containment server stalled or silently died — must resolve fail-closed:
// RST on both legs, a synthetic Drop record flagged FailClosed, metered
// under flows_failclosed (not sweep_reaped), and the table drains empty.
func TestAwaitVerdictDeadlineFailsClosed(t *testing.T) {
	s, r := newSweepRig(t)
	initIP := netstack.MustParseAddr("10.0.0.7")
	key := netstack.FlowKey{
		VLAN:  12,
		SrcIP: initIP, SrcPort: 4100,
		DstIP: netstack.MustParseAddr("198.51.100.9"), DstPort: 25,
		Proto: netstack.ProtoTCP,
	}
	knowInmateMAC(r, 12, netstack.MAC{2, 0, 0, 0, 0, 7})
	// The rig has no real CS host; resolve its ARP so the CS-leg RST is
	// emitted (and tapped) instead of parking in the pending queue.
	r.vlanARP[vlanAddr{uint32(r.cfg.ContainmentCluster[0].VLAN), r.cfg.ContainmentCluster[0].IP}] = netstack.MAC{2, 0, 0, 0, 0, 66}
	toInit, toCS := rstCollector(r, initIP, r.cfg.ContainmentCluster[0].IP)

	f := r.newFlow(key, 12, false)
	f.state = fsAwaitVerdict
	f.haveCSISN = true
	f.csISN = 1000
	f.initNextSeq = 2001

	s.RunFor(r.awaitVerdictTimeout / 2)
	if n := r.ActiveFlows(); n == 0 {
		t.Fatal("awaiting flow reaped before the deadline")
	}
	s.RunFor(r.awaitVerdictTimeout + time.Minute)

	if n := r.ActiveFlows(); n != 0 {
		t.Fatalf("awaiting flow leaked: ActiveFlows = %d", n)
	}
	if f.rec.Verdict != shim.Drop || !f.rec.FailClosed {
		t.Fatalf("record verdict=%v failclosed=%v, want synthetic Drop", f.rec.Verdict, f.rec.FailClosed)
	}
	if f.rec.Policy != "" {
		t.Fatalf("pre-verdict fail-close must carry no policy, got %q", f.rec.Policy)
	}
	if got := r.FlowsFailClosed.Value(); got != 1 {
		t.Fatalf("flows_failclosed = %d, want 1", got)
	}
	if got := r.SweepReaped.Value(); got != 0 {
		t.Fatalf("sweep_reaped = %d — fail-closed reap must not count as routine sweep", got)
	}
	if len(*toInit) == 0 {
		t.Fatal("no RST sent toward the initiator")
	}
	if rst := (*toInit)[0]; rst.TCP.Seq != f.csISN+1 || rst.TCP.Ack != f.initNextSeq {
		t.Fatalf("initiator RST seq=%d ack=%d, want seq=csISN+1=%d ack=%d",
			rst.TCP.Seq, rst.TCP.Ack, f.csISN+1, f.initNextSeq)
	}
	if len(*toCS) == 0 {
		t.Fatal("no RST sent toward the containment server")
	}
}

// The sweep reads the await-verdict bound the router holds, not a constant
// of its own: a tighter one resolves the flow well short of the default.
func TestAwaitVerdictBoundHonoured(t *testing.T) {
	s, r := newSweepRig(t)
	r.awaitVerdictTimeout = 10 * time.Second
	key := netstack.FlowKey{
		VLAN:  11,
		SrcIP: netstack.MustParseAddr("10.0.0.3"), SrcPort: 4200,
		DstIP: netstack.MustParseAddr("198.51.100.9"), DstPort: 80,
		Proto: netstack.ProtoTCP,
	}
	f := r.newFlow(key, 11, false)
	f.state = fsAwaitVerdict

	s.RunFor(45 * time.Second) // one sweep past the 10s bound, well short of the 1m default
	if n := r.ActiveFlows(); n != 0 {
		t.Fatalf("ActiveFlows = %d — the router's await-verdict bound not honoured", n)
	}
	if !f.rec.FailClosed {
		t.Fatal("record not marked fail-closed")
	}
}

// A containment server dying mid-rewrite-proxy must fail the proxied flow
// closed — RST both legs — while keeping the policy name from the verdict
// that did cross the wire (the reporting discriminator for a post-verdict
// fail-close).
func TestFailCloseEndpointRewriteProxy(t *testing.T) {
	_, r := newSweepRig(t)
	initIP := netstack.MustParseAddr("10.0.0.8")
	key := netstack.FlowKey{
		VLAN:  13,
		SrcIP: initIP, SrcPort: 4300,
		DstIP: netstack.MustParseAddr("198.51.100.10"), DstPort: 25,
		Proto: netstack.ProtoTCP,
	}
	knowInmateMAC(r, 13, netstack.MAC{2, 0, 0, 0, 0, 8})
	r.vlanARP[vlanAddr{uint32(r.cfg.ContainmentCluster[0].VLAN), r.cfg.ContainmentCluster[0].IP}] = netstack.MAC{2, 0, 0, 0, 0, 66}
	toInit, toCS := rstCollector(r, initIP, r.cfg.ContainmentCluster[0].IP)

	f := r.newFlow(key, 13, false)
	f.state = fsRewriteProxy
	f.haveCSISN = true
	f.csISN = 5000
	f.initNextSeq = 6001
	f.rec.Verdict = shim.Rewrite
	f.rec.Policy = "Rustock"

	// An unrelated established splice must NOT be touched: it no longer
	// depends on the containment server.
	sk := netstack.FlowKey{
		VLAN:  14,
		SrcIP: netstack.MustParseAddr("10.0.0.9"), SrcPort: 4400,
		DstIP: netstack.MustParseAddr("198.51.100.11"), DstPort: 80,
		Proto: netstack.ProtoTCP,
	}
	spliced := r.newFlow(sk, 14, false)
	spliced.state = fsSplice

	if n := r.FailCloseEndpoint(0, "containment server down"); n != 1 {
		t.Fatalf("FailCloseEndpoint evicted %d flows, want 1", n)
	}
	if spliced.state != fsSplice {
		t.Fatalf("spliced flow disturbed: state=%v", spliced.state)
	}
	if f.rec.Verdict != shim.Drop || !f.rec.FailClosed {
		t.Fatalf("record verdict=%v failclosed=%v", f.rec.Verdict, f.rec.FailClosed)
	}
	if f.rec.Policy != "Rustock" {
		t.Fatalf("post-verdict fail-close lost its policy: %q", f.rec.Policy)
	}
	if len(*toInit) == 0 || len(*toCS) == 0 {
		t.Fatalf("RSTs: %d toward initiator, %d toward CS — want both legs reset",
			len(*toInit), len(*toCS))
	}
	if got := r.FlowsFailClosed.Value(); got != 1 {
		t.Fatalf("flows_failclosed = %d, want 1", got)
	}
}

// A SYN retransmission of a fail-closed flow must not re-admit it (the
// trace audit counts incarnations by ISN), while a genuinely new connection
// attempt — fresh ISN — must.
func TestFailCloseSynTombstone(t *testing.T) {
	s, r := newSweepRig(t)
	initIP := netstack.MustParseAddr("10.0.0.5")
	respIP := netstack.MustParseAddr("198.51.100.12")
	key := netstack.FlowKey{
		VLAN:  12,
		SrcIP: initIP, SrcPort: 4500,
		DstIP: respIP, DstPort: 25,
		Proto: netstack.ProtoTCP,
	}
	knowInmateMAC(r, 12, netstack.MAC{2, 0, 0, 0, 0, 5})

	f := r.newFlow(key, 12, false)
	f.state = fsAwaitVerdict
	f.initISS = 7000
	f.initNextSeq = 7001
	f.failClose("containment server down")

	syn := func(isn uint32) *netstack.Packet {
		return &netstack.Packet{
			Eth: netstack.Ethernet{VLAN: 12},
			IP:  &netstack.IPv4{Src: initIP, Dst: respIP, Protocol: netstack.ProtoTCP, TTL: 64},
			TCP: &netstack.TCP{SrcPort: 4500, DstPort: 25, Seq: isn, Flags: netstack.FlagSYN, Window: 65535},
		}
	}
	r.dispatchInmateIP(syn(7000))
	if got := r.FlowsCreated.Value(); got != 1 {
		t.Fatalf("retransmitted SYN re-admitted the fail-closed flow: flows_created=%d", got)
	}
	r.dispatchInmateIP(syn(9000))
	if got := r.FlowsCreated.Value(); got != 2 {
		t.Fatalf("fresh incarnation rejected: flows_created=%d, want 2", got)
	}

	// After the tombstone TTL the stale keys must be forgotten (bounded
	// state), which the periodic sweep handles. The second flow fail-closes
	// at the await-verdict deadline and plants its own tombstone, so run
	// past that one's expiry too.
	s.RunFor(r.awaitVerdictTimeout + synTombstoneTTL + 2*time.Minute)
	if len(r.synTombs) != 0 {
		t.Fatalf("%d tombstones leaked past their TTL", len(r.synTombs))
	}
}

// synTombs is keyed by tuples and ISNs an inmate chooses, so it holds at most
// maxSynTombs: a flood of SYNs that all fail closed stops growing it there
// and is counted in syn_tombs_full. A tombstone held before the flood still
// swallows its retransmission; one the bound turned away cannot, which is
// why a run that counts any fails Run.check.
func TestSynTombsAreBounded(t *testing.T) {
	rig := newLifecycleRig(t)
	r := rig.r
	r.taps = nil // the rig's wire log: a flood has no use for it
	const flood, batch = maxSynTombs + 1000, 2048
	for sent := 0; sent < flood; {
		for n := 0; n < batch && sent < flood; n, sent = n+1, sent+1 {
			rig.trunk.port.Send(synFrom(lcVLAN, lcInit, uint16(1024+sent), uint32(7*sent+1)))
		}
		rig.settle()
		r.FailCloseEndpoint(0, "containment server down")
	}
	if r.FlowsCreated.Value() != flood || r.FlowsFailClosed.Value() != flood {
		t.Fatalf("%d SYNs created %d flows, %d failed closed", flood, r.FlowsCreated.Value(), r.FlowsFailClosed.Value())
	}
	if n := len(r.synTombs); n != maxSynTombs {
		t.Fatalf("synTombs holds %d after %d fail-closed flows, bound is %d", n, flood, maxSynTombs)
	}
	if got := rig.s.Obs().Snapshot().Counter("subfarm.lifetime.syn_tombs_full"); got != flood-maxSynTombs {
		t.Fatalf("syn_tombs_full = %d, want %d", got, flood-maxSynTombs)
	}
	rig.trunk.port.Send(synFrom(lcVLAN, lcInit, 1024, 1)) // held: swallowed
	rig.trunk.port.Send(synFrom(lcVLAN, lcInit, uint16(1024+flood-1), uint32(7*(flood-1)+1)))
	rig.settle()
	if got := r.FlowsCreated.Value(); got != flood+1 {
		t.Fatalf("retransmitted SYNs of a held and a refused tombstone created %d flows, want 1", got-flood)
	}
}
