package gateway

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gq/internal/nat"
	"gq/internal/netstack"
	"gq/internal/shim"
)

// The router builds every packet it originates in one header set of its own
// (DESIGN.md §3g "One voice"). These tests cover the call chains that build
// two or more in a row, where anything one build left behind would show in
// the next frame, and the containment server's response shim, which is
// decoded where it arrives.

// refSegment and refDatagram are the builders as they were before the
// router owned its headers — a fresh Packet, IP and transport header per
// packet — kept as the reference the router's frames must equal byte for
// byte.
func refSegment(src, dst netstack.Addr, sport, dport uint16, seq, ack uint32, flags uint8, payload []byte) *netstack.Packet {
	o := &struct {
		pkt netstack.Packet
		ip  netstack.IPv4
		tcp netstack.TCP
	}{
		ip:  netstack.IPv4{TTL: netstack.DefaultTTL, Src: src, Dst: dst},
		tcp: netstack.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: 65535},
	}
	if flags&netstack.FlagRST != 0 {
		o.tcp.Window = 0
	}
	o.pkt = netstack.Packet{
		Eth: netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
		IP:  &o.ip, TCP: &o.tcp, Payload: payload,
	}
	return &o.pkt
}

func refDatagram(src, dst netstack.Addr, sport, dport uint16, payload []byte) *netstack.Packet {
	o := &struct {
		pkt netstack.Packet
		ip  netstack.IPv4
		udp netstack.UDP
	}{
		ip:  netstack.IPv4{TTL: netstack.DefaultTTL, Src: src, Dst: dst},
		udp: netstack.UDP{SrcPort: sport, DstPort: dport},
	}
	o.pkt = netstack.Packet{
		Eth: netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
		IP:  &o.ip, UDP: &o.udp, Payload: payload,
	}
	return &o.pkt
}

// onVLAN is the frame a reference packet makes on the trunk toward mac on
// vlan; outside is the frame it makes on the upstream wire toward mac.
func onVLAN(p *netstack.Packet, vlan uint16, mac netstack.MAC) []byte {
	p.Eth.Src, p.Eth.Dst, p.Eth.VLAN = GatewayMAC, mac, vlan
	return p.Marshal()
}

func outside(p *netstack.Packet, mac netstack.MAC) []byte {
	p.Eth.Src, p.Eth.Dst, p.Eth.VLAN = GatewayMAC, mac, netstack.NoVLAN
	return p.Marshal()
}

// sameFrames compares what a wire received, in order, with the reference.
func sameFrames(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: frame %d differs from the reference builder's:\ngot  % x\nwant % x", what, i, got[i], want[i])
		}
	}
}

// csSegment is a containment-server segment toward a flow's initiator, as
// it arrives on the containment VLAN.
func csSegment(r *Router, f *Flow, seq uint32, flags uint8, payload []byte) []byte {
	p := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: csMAC, VLAN: r.cfg.ContainmentCluster[0].VLAN, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Src: r.cfg.ContainmentCluster[0].IP, Dst: f.initIP},
		TCP:     &netstack.TCP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: f.initPort, Seq: seq, Ack: f.initNextSeq + shim.RequestLen, Flags: flags, Window: 65535},
		Payload: payload,
	}
	return p.Marshal()
}

// shimmed puts a flow where the request shim has gone out and the server's
// answer is awaited.
func shimmed(f *Flow) {
	f.shimSent, f.c2sShim = true, shim.RequestLen
}

func TestOriginatedPacketsKeepTheirOwnBytes(t *testing.T) {
	csIP, csPort := netstack.MustParseAddr("10.3.0.1"), uint16(6666)

	t.Run("reset of an await-verdict flow", func(t *testing.T) {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcAwaitPost, 4000)
		shimmed(f)
		f.reset(true)
		rig.settle()
		sameFrames(t, "trunk", rig.trunk.frames, [][]byte{
			onVLAN(refSegment(lcResp, lcInit, 80, 4000, f.csISN+1, f.initNextSeq, netstack.FlagRST|netstack.FlagACK, nil), lcVLAN, inmateMAC(lcVLAN)),
			onVLAN(refSegment(lcInit, csIP, 4000, csPort, f.initNextSeq+shim.RequestLen, f.csNextSeq, netstack.FlagRST|netstack.FlagACK, nil), 2, csMAC),
		})
	})

	t.Run("forward verdict, then handshake ACK and replay", func(t *testing.T) {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcAwaitPost, 4000)
		shimmed(f)
		replay := bytes.Repeat([]byte("phase-1 bytes "), 200) // 2800: two full segments
		f.initPayload = append([]byte(nil), replay...)
		f.initNextSeq += uint32(len(replay)) + 1
		f.initFin = true

		// The verdict, whole in one segment: cut the CS leg with an RST that
		// acknowledges it, and dial.
		resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd", Annotation: "go"}).Marshal()
		rig.trunk.port.Send(csSegment(rig.r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp))
		rig.settle()
		csNext := f.csNextSeq
		if csNext != 1001+uint32(len(resp)) || f.state != fsEstablishing {
			t.Fatalf("verdict not applied: csNextSeq %d, state %v", csNext, f.state)
		}
		sameFrames(t, "trunk", rig.trunk.frames, [][]byte{
			onVLAN(refSegment(lcInit, csIP, 4000, csPort, f.initNextSeq+shim.RequestLen, csNext, netstack.FlagRST|netstack.FlagACK, nil), 2, csMAC),
		})
		global := f.initGlobal
		sameFrames(t, "outside", rig.outside.frames, [][]byte{
			outside(refSegment(global, lcResp, 4000, 80, f.initISS, 0, netstack.FlagSYN, nil), extMAC),
		})
		rig.trunk.frames, rig.outside.frames = nil, nil

		// The responder's SYN-ACK: the replay, whose first segment carries
		// the handshake ACK and whose last the FIN.
		synAck := &netstack.Packet{
			Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
			IP:  &netstack.IPv4{TTL: 57, Src: lcResp, Dst: global},
			TCP: &netstack.TCP{SrcPort: 80, DstPort: 4000, Seq: 500, Ack: f.initISS + 1, Flags: netstack.FlagSYN | netstack.FlagACK, Window: 4321},
		}
		rig.outside.port.Send(synAck.Marshal())
		rig.settle()
		seq := f.initISS + 1
		sameFrames(t, "outside", rig.outside.frames, [][]byte{
			outside(refSegment(global, lcResp, 4000, 80, seq, 501, netstack.FlagACK|netstack.FlagPSH, replay[:1400]), extMAC),
			outside(refSegment(global, lcResp, 4000, 80, seq+1400, 501, netstack.FlagACK|netstack.FlagPSH|netstack.FlagFIN, replay[1400:]), extMAC),
		})
		if len(rig.trunk.frames) != 0 {
			t.Errorf("%d frames toward the farm on establishment, want none", len(rig.trunk.frames))
		}
	})

	t.Run("UDP verdict, then queued datagrams", func(t *testing.T) {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcUDPAwait, 4000)
		f.shimSent = true
		f.needRare().udpQueue = [][]byte{[]byte("first"), []byte("second, longer"), nil}
		resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd"}).Marshal()
		reply := &netstack.Packet{
			Eth:     netstack.Ethernet{Dst: GatewayMAC, Src: csMAC, VLAN: 2, EtherType: netstack.EtherTypeIPv4},
			IP:      &netstack.IPv4{TTL: 64, Src: csIP, Dst: rig.r.cfg.NonceIP},
			UDP:     &netstack.UDP{SrcPort: csPort, DstPort: f.noncePort},
			Payload: append(resp, "and a reply"...),
		}
		rig.trunk.port.Send(reply.Marshal())
		rig.settle()
		global := f.initGlobal
		sameFrames(t, "outside", rig.outside.frames, [][]byte{
			outside(refDatagram(global, lcResp, 4000, 80, []byte("first")), extMAC),
			outside(refDatagram(global, lcResp, 4000, 80, []byte("second, longer")), extMAC),
			outside(refDatagram(global, lcResp, 4000, 80, nil), extMAC),
		})
		sameFrames(t, "trunk", rig.trunk.frames, [][]byte{
			onVLAN(refDatagram(lcResp, lcInit, 80, 4000, []byte("and a reply")), lcVLAN, inmateMAC(lcVLAN)),
		})
	})

	t.Run("GRE-tunnelled source: replay, then reset", func(t *testing.T) {
		tunnel := GRETunnel{
			LocalAddr: netstack.MustParseAddr("192.0.2.2"),
			PeerAddr:  netstack.MustParseAddr("198.51.100.254"),
			ExtraPool: netstack.MustParsePrefix("203.0.114.0/24"),
			PoolStart: 16,
		}
		rig := newLifetimeRig(t, func(cfg *RouterConfig) {
			cfg.GlobalPool, cfg.GlobalPoolStart = netstack.MustParsePrefix("192.0.2.0/28"), 14
			cfg.GRETunnels = []GRETunnel{tunnel}
			cfg.InboundMode = nat.ForwardInbound
		})
		r := rig.r
		inmate := netstack.MustParseAddr("10.0.0.9")
		r.learnInmate(14, netstack.MustParseAddr("10.0.0.8"), inmateMAC(14))
		r.learnInmate(15, inmate, inmateMAC(15))
		global := r.nat.ByVLAN(15).Global
		if !tunnel.ExtraPool.Contains(global) {
			t.Fatalf("inmate bound to %v, outside the tunnelled pool", global)
		}
		rig.g.outARP[tunnel.PeerAddr] = extMAC
		f := r.newFlow(netstack.FlowKey{VLAN: 15, SrcIP: inmate, SrcPort: 4000, DstIP: lcResp, DstPort: 80, Proto: netstack.ProtoTCP}, 15, false)
		f.initISS, f.initNextSeq = 7000, 7001
		f.haveCSISN, f.csISN = true, 1000
		f.actualIP, f.actualPort = lcResp, 80
		f.state = fsEstablishing
		rt, ok := f.responderRoute()
		if !ok || rt.srcIP != global {
			t.Fatalf("responder route %+v (ok %v), want sourced from %v", rt, ok, global)
		}
		f.sender = newGwSender(f, rt)
		f.sender.nextSeq = f.initISS + 1
		f.initPayload = []byte("replayed through the tunnel")
		f.targetISN, f.respNextSeq = 500, 501
		f.state = fsSplice

		tunnelled := func(p *netstack.Packet) []byte {
			return outside(&netstack.Packet{
				Eth: netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
				IP: &netstack.IPv4{
					TTL: netstack.DefaultTTL, Protocol: netstack.ProtoGRE,
					Src: tunnel.LocalAddr, Dst: tunnel.PeerAddr,
				},
				Payload: netstack.GREEncap(netstack.MarshalIPPacket(p)),
			}, extMAC)
		}
		f.sender.onEstablished()
		f.reset(true)
		rig.settle()
		seq := f.initISS + 1
		sameFrames(t, "outside", rig.outside.frames, [][]byte{
			tunnelled(refSegment(global, lcResp, 4000, 80, seq, 501, netstack.FlagACK|netstack.FlagPSH, []byte("replayed through the tunnel"))),
			tunnelled(refSegment(global, lcResp, 4000, 80, seq+27, 501, netstack.FlagRST|netstack.FlagACK, nil)),
		})
		sameFrames(t, "trunk", rig.trunk.frames, [][]byte{
			onVLAN(refSegment(lcResp, inmate, 80, 4000, f.csISN+1, f.initNextSeq, netstack.FlagRST|netstack.FlagACK, nil), 15, inmateMAC(15)),
		})
	})
}

// Only a REWRITE verdict leaves the containment server's leg open, so only
// it gets a pure ACK for the response shim, before the bytes that followed
// the shim are relayed; a REWRITE for an initiator that already reset cuts
// the leg with an RST that carries the ACK instead.
func TestRewriteVerdictACKsTheResponseShim(t *testing.T) {
	csIP, csPort := netstack.MustParseAddr("10.3.0.1"), uint16(6666)
	resp := (&shim.Response{Verdict: shim.Rewrite, PolicyName: "Rw"}).Marshal()
	for _, aborted := range []bool{false, true} {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcAwaitPost, 4000)
		shimmed(f)
		f.initAborted = aborted
		rig.trunk.port.Send(csSegment(rig.r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, append(resp, "220 hi"...)))
		rig.settle()
		csNext := f.csNextSeq
		seq := f.initNextSeq + shim.RequestLen
		if aborted {
			sameFrames(t, "trunk, initiator reset", rig.trunk.frames, [][]byte{
				onVLAN(refSegment(lcInit, csIP, 4000, csPort, seq, csNext, netstack.FlagRST|netstack.FlagACK, nil), 2, csMAC),
			})
			continue
		}
		if f.state != fsRewriteProxy {
			t.Fatalf("state %v after a REWRITE verdict, want the rewrite proxy", f.state)
		}
		sameFrames(t, "trunk", rig.trunk.frames, [][]byte{
			onVLAN(refSegment(lcInit, csIP, 4000, csPort, seq, csNext, netstack.FlagACK, nil), 2, csMAC),
			onVLAN(refSegment(lcResp, lcInit, 80, 4000, f.csISN+1, f.initNextSeq, netstack.FlagACK|netstack.FlagPSH, []byte("220 hi")), lcVLAN, inmateMAC(lcVLAN)),
		})
	}
}

// With no phase-1 payload to replay, the gateway completes the responder's
// handshake with a pure ACK, and, for an initiator that already reset, sends
// the reset behind it: a reset alone would reach a responder still in
// SYN_RCVD, which drops the conn unaccepted.
func TestEmptyReplaySendsTheHandshakeACK(t *testing.T) {
	resp := (&shim.Response{Verdict: shim.Forward, PolicyName: "Fwd"}).Marshal()
	for _, aborted := range []bool{false, true} {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcAwaitPost, 4000)
		shimmed(f)
		f.initAborted = aborted
		rig.trunk.port.Send(csSegment(rig.r, f, f.csNextSeq, netstack.FlagACK|netstack.FlagPSH, resp))
		rig.settle()
		global := f.initGlobal
		rig.outside.frames = nil
		synAck := &netstack.Packet{
			Eth: netstack.Ethernet{Dst: GatewayMAC, Src: extMAC, EtherType: netstack.EtherTypeIPv4},
			IP:  &netstack.IPv4{TTL: 57, Src: lcResp, Dst: global},
			TCP: &netstack.TCP{SrcPort: 80, DstPort: 4000, Seq: 500, Ack: f.initISS + 1, Flags: netstack.FlagSYN | netstack.FlagACK, Window: 4321},
		}
		rig.outside.port.Send(synAck.Marshal())
		rig.settle()
		seq := f.initISS + 1
		want := [][]byte{outside(refSegment(global, lcResp, 4000, 80, seq, 501, netstack.FlagACK, nil), extMAC)}
		if aborted {
			want = append(want, outside(refSegment(global, lcResp, 4000, 80, seq, 501, netstack.FlagRST|netstack.FlagACK, nil), extMAC))
		}
		sameFrames(t, fmt.Sprintf("outside, initiator reset %v", aborted), rig.outside.frames, want)
	}
}

// A response shim that arrives whole is decoded where it lies and makes no
// rareState; one split across two or three segments — a cut inside the
// preamble included — is collected in rare.csBuf until it is whole, and
// decodes the same.
func TestResponseShimDecodedWhereItLies(t *testing.T) {
	resp := (&shim.Response{Verdict: shim.Drop, PolicyName: "Split", Annotation: "across segments"}).Marshal()
	for _, cuts := range [][]int{nil, {5}, {shim.PreambleLen, 30}, {1, len(resp) - 1}} {
		rig := newLifecycleRig(t)
		f := rig.flowIn(lcAwaitPost, 4000)
		shimmed(f)
		csBuf := func() []byte {
			if f.rare == nil {
				return nil
			}
			return f.rare.csBuf
		}
		seq, prev := f.csNextSeq, 0
		for i, cut := range append(cuts, len(resp)) {
			rig.trunk.port.Send(csSegment(rig.r, f, seq, netstack.FlagACK|netstack.FlagPSH, resp[prev:cut]))
			rig.s.RunFor(time.Millisecond)
			seq += uint32(cut - prev)
			prev = cut
			if i < len(cuts) {
				if f.state != fsAwaitVerdict || !bytes.Equal(csBuf(), resp[:cut]) {
					t.Fatalf("cuts %v: after %d bytes, state %v, csBuf %q", cuts, cut, f.state, csBuf())
				}
			}
		}
		if cuts == nil && f.rare != nil {
			t.Errorf("a whole response shim made a rareState")
		}
		if csBuf() != nil || f.state != fsDropped || f.rec.Policy != "Split" || f.rec.Annotation != "across segments" ||
			f.s2cShim != uint32(len(resp)) || f.csNextSeq != seq {
			t.Errorf("cuts %v: csBuf %q, state %v, record %q/%q, s2cShim %d, csNextSeq %d (want %d)",
				cuts, csBuf(), f.state, f.rec.Policy, f.rec.Annotation, f.s2cShim, f.csNextSeq, seq)
		}
	}
}
