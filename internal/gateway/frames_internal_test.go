package gateway

import (
	"bytes"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/shim"
)

// Frame buffers (DESIGN.md §3b): the gateway builds every frame into a
// buffer from its domain's frame list, and each receive entry gives the frame
// it was handed back to the list once it returns, unless the frame was sent
// on, parked or handed across the uplink. These tests pin what that may never
// change: what a receive path hands out is dead once the call returns, and a
// recycled buffer leaks nothing of its last frame onto the wire.

// poisoned reports whether b is non-empty and holds nothing but
// netsim.PoisonByte.
func poisoned(b []byte) bool {
	return len(b) > 0 && bytes.Count(b, []byte{netsim.PoisonByte}) == len(b)
}

// markAll fills b up to its capacity with 0xEE, the marker of a recycled
// buffer's stale bytes.
func markAll(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = 0xEE
	}
}

// recycleWires makes the rig's wire ends give every frame back to the
// domain's list once they have kept a copy, the way a host's receive path
// does, so a frame the gateway sends on is recycled when it lands.
func (rig *lifetimeRig) recycleWires() {
	rig.trunk.recycle = netsim.FramesOf(rig.s)
	rig.outside.recycle = rig.trunk.recycle
}

// inmateSegment is an initiator segment as it arrives on the trunk.
func inmateSegment(f *Flow, seq, ack uint32, flags uint8, payload []byte) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: inmateMAC(f.vlan), VLAN: f.vlan, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: f.initIP, Dst: f.respIP},
		TCP:     &netstack.TCP{SrcPort: f.initPort, DstPort: f.respPort, Seq: seq, Ack: ack, Flags: flags, Window: 65535},
		Payload: payload,
	}
	return p.Marshal()
}

// TestGatewayKeptBytesArePoisoned is the gateway's twin of the host's: a
// router tap keeps the payload it was handed, a flow awaiting its verdict is
// handed bytes it must replay later, and the first half of a response shim
// split across two segments is handed to the flow before the second arrives.
// Under go test each kept slice reads 0xDB once its frame is released,
// whichever way it was (consumed by the gateway, or sent on and recycled where
// it landed), while the flow's own copies still replay and decode intact.
func TestGatewayKeptBytesArePoisoned(t *testing.T) {
	rig := newLifecycleRig(t)
	rig.recycleWires()
	r := rig.r
	// The tap keeps what arrives from the initiator or the server, not the
	// wrapped copy the gateway sends the server.
	cs := r.cfg.ContainmentCluster[0].IP
	var kept []byte
	r.AddTap(func(p *netstack.Packet) {
		if len(p.Payload) > 0 && (p.IP.Src == lcInit && p.IP.Dst != cs || p.IP.Src == cs) {
			kept = p.Payload
		}
	})
	keptPoisoned := func(what string) {
		t.Helper()
		if !poisoned(kept) {
			t.Errorf("%s: the tap kept %d bytes starting %q, want all 0x%X", what, len(kept), kept[:min(len(kept), 16)], netsim.PoisonByte)
		}
		kept = nil
	}

	// TCP: the initiator's data before the verdict, relayed to the server in
	// its own buffer and recycled where it lands; the flow replays its copy.
	f := rig.flowIn(lcAwaitPost, 4000)
	shimmed(f)
	data := []byte("phase-1 bytes the flow must replay to the responder")
	rig.trunk.port.Send(inmateSegment(f, f.initNextSeq, f.csISN+1, netstack.FlagACK|netstack.FlagPSH, data))
	rig.settle()
	keptPoisoned("initiator data of a TCP flow awaiting its verdict")

	// The verdict, split across two segments: the gateway consumes both.
	resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Split", Annotation: "two segments"}).Marshal()
	rig.trunk.port.Send(csSegment(r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp[:10]))
	rig.settle()
	keptPoisoned("first half of a split response shim")
	rig.trunk.port.Send(csSegment(r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp[10:]))
	rig.settle()
	if f.state != fsEstablishing || f.rec.Policy != "Split" || f.rec.Annotation != "two segments" {
		t.Fatalf("split shim decoded to state %v, record %q/%q", f.state, f.rec.Policy, f.rec.Annotation)
	}
	rig.outside.frames = nil
	synAck := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
		IP:  &netstack.IPv4{TTL: 57, Src: lcResp, Dst: f.initGlobal},
		TCP: &netstack.TCP{SrcPort: 80, DstPort: 4000, Seq: 500, Ack: f.initISS + 1, Flags: netstack.FlagSYN | netstack.FlagACK, Window: 4321},
	}
	rig.outside.port.Send(synAck.Marshal())
	rig.settle()
	var replayed []byte
	for _, p := range rig.outside.take(t) {
		replayed = append(replayed, p.Payload...)
	}
	if !bytes.Equal(replayed, data) {
		t.Errorf("the responder was replayed %q, want %q", replayed, data)
	}

	// UDP: a datagram queued before the verdict, consumed by the gateway (the
	// server gets a shim-wrapped copy), then forwarded from the queue.
	u := rig.flowIn(lcUDPAwait, 5000)
	dgram := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: inmateMAC(lcVLAN), VLAN: lcVLAN, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: lcInit, Dst: lcResp},
		UDP:     &netstack.UDP{SrcPort: 5000, DstPort: 80},
		Payload: []byte("a datagram queued for its verdict"),
	}
	rig.trunk.port.Send(dgram.Marshal())
	rig.settle()
	keptPoisoned("datagram of a UDP flow awaiting its verdict")
	reply := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: csMAC, VLAN: 2, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: cs, Dst: r.cfg.NonceIP},
		UDP:     &netstack.UDP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: u.noncePort},
		Payload: (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd"}).Marshal(),
	}
	rig.outside.frames = nil
	rig.trunk.port.Send(reply.Marshal())
	rig.settle()
	got := rig.outside.take(t)
	if len(got) != 1 || got[0].UDP == nil || !bytes.Equal(got[0].Payload, []byte("a datagram queued for its verdict")) {
		t.Errorf("forwarded %v, want the queued datagram", got)
	}
}

// TestRecycledBuffersCarryNoStaleBytes (Etherleak, CVE-2003-0001) for the
// frames the gateway builds: the request shim it injects, the ACK and RST on
// the containment server's leg, and its proxy-ARP reply on the outside
// interface. Built into recycled buffers whose bytes are all 0xEE, each must
// leave byte-identical to the same frame built into a fresh buffer.
func TestRecycledBuffersCarryNoStaleBytes(t *testing.T) {
	fresh, _ := gatewayBuilds(t, false)
	recycled, built := gatewayBuilds(t, true)
	if built != 5 {
		t.Errorf("%d frames were built into the recycled buffers, want the 5 the gateway built", built)
	}
	if len(recycled) != len(fresh) {
		t.Fatalf("%d frames with recycled buffers, %d with fresh ones", len(recycled), len(fresh))
	}
	for i, f := range fresh {
		if !bytes.Equal(recycled[i], f) {
			t.Errorf("frame %d: recycled buffer sent\n%x\nfresh one\n%x", i, recycled[i], f)
		}
	}
}

// gatewayBuilds drives a flow through its request shim and its verdict, and
// an outside ARP request, and returns every frame the gateway sent, in order.
// Before each trigger the gateway's list is emptied, or, with marked, filled
// with 0xEE buffers; built counts the frames that left in one of those.
func gatewayBuilds(t *testing.T, marked bool) (frames [][]byte, built int) {
	t.Helper()
	rig := newLifecycleRig(t)
	r := rig.r
	f := rig.flowIn(lcAwaitPost, 4000)
	marks := map[*byte]bool{}
	list := func() {
		l := new(netsim.Frames)
		if marked {
			var bufs [][]byte
			for i := 0; i < 4; i++ {
				small := l.Take(1)
				bufs = append(bufs, small, l.Take(cap(small)+1))
			}
			for _, b := range bufs {
				l.Put(b)
				markAll(b)
				marks[arrayEnd(b)] = true
			}
		}
		rig.g.hand.frames = l
	}
	collect := func() {
		for _, fp := range []*framePort{rig.trunk, rig.outside} {
			for _, fr := range fp.frames {
				if marks[arrayEnd(fr)] {
					built++
				}
				frames = append(frames, append([]byte(nil), fr...))
			}
			fp.frames = nil
		}
	}

	// The handshake ACK: relayed in place, then the request shim.
	list()
	rig.trunk.port.Send(inmateSegment(f, f.initNextSeq, f.csISN+1, netstack.FlagACK, nil))
	rig.settle()
	collect()
	// The verdict: the leg's ACK and RST, and the dial to the responder.
	list()
	resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd"}).Marshal()
	rig.trunk.port.Send(csSegment(r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp))
	rig.settle()
	collect()
	// Proxy ARP for an inmate's global address.
	list()
	who := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: netstack.BroadcastMAC, Src: extMAC, EtherType: netstack.EtherTypeARP},
		ARP: &netstack.ARP{Op: netstack.ARPRequest, SenderHW: extMAC, SenderIP: lcResp, TargetIP: f.initGlobal},
	}
	rig.outside.port.Send(who.Marshal())
	rig.settle()
	collect()
	if len(frames) != 6 {
		t.Fatalf("marked %v: the gateway sent %d frames, want the relayed ACK, the shim, the leg's ACK and RST, the SYN and the ARP reply", marked, len(frames))
	}
	return frames, built
}

// TestReplayRetransmitKeepsInitiatorBytes: a flow's phase-1 replay buffer is
// taken from the frame list and goes back only when nothing more can be sent
// from it. The responder never acknowledges the first replay, so the
// retransmission one second later must carry the initiator's bytes, not
// 0xDB or another frame's. Once the responder acknowledges it, the buffer is
// back on the list; a flow that closes before its verdict gives back its
// own.
func TestReplayRetransmitKeepsInitiatorBytes(t *testing.T) {
	rig := newLifecycleRig(t)
	rig.recycleWires()
	r := rig.r
	f := rig.flowIn(lcAwaitPost, 4000)
	shimmed(f)
	data := bytes.Repeat([]byte("bytes the responder must see twice "), 4)
	rig.trunk.port.Send(inmateSegment(f, f.initNextSeq, f.csISN+1, netstack.FlagACK|netstack.FlagPSH, data))
	rig.settle()
	resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd"}).Marshal()
	rig.trunk.port.Send(csSegment(r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp))
	rig.settle()
	synAck := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
		IP:  &netstack.IPv4{TTL: 57, Src: lcResp, Dst: f.initGlobal},
		TCP: &netstack.TCP{SrcPort: 80, DstPort: 4000, Seq: 500, Ack: f.initISS + 1, Flags: netstack.FlagSYN | netstack.FlagACK, Window: 4321},
	}
	rig.outside.port.Send(synAck.Marshal())
	rig.settle()
	replayed := func(what string) {
		t.Helper()
		var got []byte
		for _, p := range rig.outside.take(t) {
			got = append(got, p.Payload...)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: the responder was sent %q, want %q", what, got[:min(len(got), 32)], data[:32])
		}
	}
	replayed("first replay")
	if f.sender == nil || f.sender.replay == nil || f.initPayload != nil {
		t.Fatal("the sender did not take the replay buffer over at establishment")
	}
	// The first replay is lost: one second later the sender resends it from
	// the buffer.
	rig.s.RunFor(time.Second + time.Millisecond)
	replayed("retransmitted replay")

	ack := &netstack.Packet{
		Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
		IP:  &netstack.IPv4{TTL: 57, Src: lcResp, Dst: f.initGlobal},
		TCP: &netstack.TCP{SrcPort: 80, DstPort: 4000, Seq: 501, Ack: f.initISS + 1 + uint32(len(data)), Flags: netstack.FlagACK, Window: 4321},
	}
	rig.outside.port.Send(ack.Marshal())
	rig.settle()
	if f.sender.replay != nil || len(f.sender.pending) != 0 {
		t.Errorf("replay acknowledged, but the sender still holds %d bytes in %d segments", len(f.sender.replay), len(f.sender.pending))
	}

	g := rig.flowIn(lcAwaitPost, 4001)
	shimmed(g)
	rig.trunk.port.Send(inmateSegment(g, g.initNextSeq, g.csISN+1, netstack.FlagACK|netstack.FlagPSH, data))
	rig.settle()
	if len(g.initPayload) != len(data) {
		t.Fatalf("a flow awaiting its verdict buffered %d bytes, want %d", len(g.initPayload), len(data))
	}
	g.close("test")
	if g.initPayload != nil {
		t.Error("a flow closed before its verdict kept its replay buffer")
	}
}
