package gateway

import (
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
)

// FuzzFlowSegments drives the flow state machine with segments whose flags,
// sequence numbers and payloads the fuzzer chooses — the gateway parses
// bytes malware controls. One flow starts in every state (lifecycle rig);
// the script, four bytes an operation, then injects frames from the
// initiator (UDP to either of two destinations), the containment server
// (leg 1, nonce leg, well-formed verdicts — REDIRECT to a second inmate
// among them — and garbage) and the responder (outside, or that second
// inmate), interleaved with sweeps, LRU sheds, endpoint fail-closes,
// lockdowns and the passage of time. Whatever the script: no panic, no flow
// closed twice, after every operation each index entry names a live flow
// that owns that key and each live flow's keys are in the index, and past
// the sweep horizon every record is closed and the index is empty.
func FuzzFlowSegments(f *testing.F) {
	const (
		fromInit = iota << 3
		fromCS
		fromResp
		udp
		control
		wait
		verdict
		nonceLeg
	)
	const ack, psh, fin, rst, syn = netstack.FlagACK, netstack.FlagPSH, netstack.FlagFIN, netstack.FlagRST, netstack.FlagSYN
	f.Add([]byte{
		fromInit | lcAwaitPost, ack, 0, 0, // handshake ACK: the request shim goes out
		fromInit | lcAwaitPost, ack | psh, 0, 20,
		verdict | lcAwaitPost, 0, 0, 0, // FORWARD: dial the responder
		fromResp | lcAwaitPost, syn | ack, 0, 0,
		fromResp | lcAwaitPost, ack | psh, 1, 30,
		fromInit | lcAwaitPost, fin | ack, 20, 0,
		fromResp | lcAwaitPost, fin | ack, 31, 0,
		fromResp | lcAwaitPost, fin | ack, 31, 0,
		wait, 200, 0, 0,
	})
	f.Add([]byte{
		fromInit | lcAwaitPost, ack | psh, 0, 9, // data with the handshake ACK
		fromInit | lcAwaitPost, rst, 9, 0, // write-and-reset
		verdict | lcAwaitPost, 4, 1, 7, // REWRITE with trailing bytes
		verdict | lcAwaitPre, 1, 0, 0, // a verdict before any SYN-ACK
		fromCS | lcAwaitPre, syn | ack, 0, 0,
		fromCS | lcAwaitPost, ack | psh, 0, 40, // garbage where the shim belongs
		nonceLeg | lcRewrite, syn, 0, 0,
		nonceLeg | lcRewrite, ack | psh, 1, 12,
		fromResp | lcRewrite, ack | psh, 0, 12,
		nonceLeg | lcRewrite, syn, 0, 1, // redial from a fresh port
	})
	f.Add([]byte{
		udp | lcUDPAwait, 0, 0, 8,
		udp | lcUDPAwait, 0, 0, 8,
		udp | lcUDPAwait, 1, 0, 5, // verdict datagram from the CS
		udp | lcUDPAwait, 2, 0, 5, // responder
		udp | lcUDPSplice, 2, 0, 5,
		udp | lcUDPSplice, 1, 3, 0,
		udp | lcUDPAwait, 3, 0, 33, // garbage from the CS
		control, 1, 0, 0, // shed
		control, 2, 0, 0, // lockdown
		fromInit | lcSplice, syn, 77, 0, // new incarnation under lockdown
		control, 3, 0, 0,
		control, 4, 0, 0, // endpoint fail-close
		control, 0, 0, 0, // sweep
	})
	f.Add([]byte{
		fromInit | lcSplice, ack | psh, 0, 60,
		fromResp | lcSplice, rst, 0, 9,
		fromInit | lcEstablishing, ack | psh, 0, 10,
		fromResp | lcEstablishing, rst | ack, 0, 0,
		fromInit | lcDropped, ack, 0, 0, // stray segment of a contained flow
		fromResp | lcDropped, ack, 0, 0,
		fromCS | lcRewrite, rst, 0, 0,
		fromInit | lcAwaitPre, syn, 1, 0, // same port, new ISN
		wait, 255, 0, 0,
		wait, 255, 0, 0,
		control, 0, 0, 0,
	})
	f.Add([]byte{
		udp | lcUDPAwait, 4, 0, 8, // the same socket to a second destination
		udp | lcUDPAwait, 5, 0x80, 0, // its verdict: REDIRECT to the second inmate
		udp | lcUDPAwait, 1, 0x80, 0, // the first destination's too: one actual-responder key
		udp | lcUDPAwait, 8 | 2, 0, 6, // the second inmate answers the initiator's global address
		control, 1, 0, 0, // shed the older of the two
		udp | lcUDPAwait, 8 | 2, 0, 6,
		verdict | lcAwaitPost, 0x80, 0, 0, // TCP REDIRECT to the second inmate
		fromResp | lcAwaitPost, 0x40 | syn | ack, 0, 0,
		fromResp | lcAwaitPost, 0x40 | ack | psh, 1, 7,
		wait, 255, 0, 0,
	})

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512] // each operation runs the simulator
		}
		rig := newLifecycleRig(t)
		r := rig.r
		r.learnInmate(lcPeerVLAN, lcPeer, inmateMAC(lcPeerVLAN))
		flows := map[*Flow]struct{}{} // every flow the index has named
		for state := 0; state < lcStates; state++ {
			flows[rig.flowIn(state, uint16(4000+state))] = struct{}{}
		}
		r.taps, rig.g.upstreamTaps = nil, nil // the rig's logging taps, not needed here
		csIP, global := r.cfg.ContainmentCluster[0].IP, r.nat.ByVLAN(lcVLAN).Global
		checkIndex := func(op byte) {
			for k, fl := range r.index {
				flows[fl] = struct{}{}
				if fl.state == fsClosed || fl.keys()[k.kind] != k {
					t.Fatalf("after op %#x: index key %+v names a flow (state %v) owning %+v", op, k, fl.state, fl.keys()[k.kind])
				}
			}
			for fl := range flows {
				for _, k := range fl.keys() {
					if fl.state != fsClosed && k != (flowKey{}) && r.index[k] == nil {
						t.Fatalf("after op %#x: live flow %v:%d (state %v) lost its key %+v", op, fl.initIP, fl.initPort, fl.state, k)
					}
				}
				// A keyActual's sharers are a list of live flows whose
				// newest is the one the index names.
				if fl.rare == nil {
					continue
				}
				older, newer := fl.rare.older, fl.rare.newer
				switch {
				case fl.state == fsClosed && (older != nil || newer != nil):
					t.Fatalf("after op %#x: closed flow %v:%d is still on a sharer list", op, fl.initIP, fl.initPort)
				case older != nil && (older.state == fsClosed || older.rare.newer != fl),
					newer != nil && (newer.state == fsClosed || newer.rare.older != fl):
					t.Fatalf("after op %#x: flow %v:%d's sharer links are broken", op, fl.initIP, fl.initPort)
				case fl.state != fsClosed && older != nil && newer == nil && r.index[fl.keys()[keyActual]] != fl:
					t.Fatalf("after op %#x: the newest sharer %v:%d does not own its keyActual", op, fl.initIP, fl.initPort)
				}
			}
		}
		checkIndex(0)

		inject := func(port *framePort, eth netstack.Ethernet, src, dst netstack.Addr, l4 interface{}, payload []byte) {
			eth.Dst, eth.EtherType = GatewayMAC, netstack.EtherTypeIPv4
			p := &netstack.Packet{Eth: eth, IP: &netstack.IPv4{TTL: 64, Src: src, Dst: dst}, Payload: payload}
			switch h := l4.(type) {
			case *netstack.TCP:
				p.TCP = h
			case *netstack.UDP:
				p.UDP = h
			}
			port.port.Send(p.Marshal())
			rig.settle()
			rig.trunk.frames, rig.outside.frames = nil, nil
		}
		inmate := netstack.Ethernet{Src: inmateMAC(lcVLAN), VLAN: lcVLAN}
		peer := netstack.Ethernet{Src: inmateMAC(lcPeerVLAN), VLAN: lcPeerVLAN}
		service := netstack.Ethernet{Src: csMAC, VLAN: r.cfg.ContainmentCluster[0].VLAN}
		outside := netstack.Ethernet{Src: extMAC}
		fill := func(n byte) []byte {
			b := make([]byte, n%64)
			for i := range b {
				b[i] = n + byte(i)
			}
			return b
		}
		response := func(v byte, tail []byte) []byte {
			resp := shim.Response{
				OrigIP: lcInit, RespIP: lcResp, RespPort: 80,
				Verdict: shim.Verdict(1) << (v % 6), PolicyName: "fuzz",
			}
			switch {
			case v&0x80 != 0:
				resp.Verdict, resp.RespIP = shim.Redirect, lcPeer // worm-style, to the second inmate
			case v&0x40 != 0:
				resp.RespIP = 0 // "as addressed"
			}
			return append(resp.Marshal(), tail...)
		}

		for len(script) >= 4 {
			op, a, b, c := script[0], script[1], script[2], script[3]
			script = script[4:]
			sport := uint16(4000 + int(op&7))
			// Sequence numbers are offsets from what the flow expects next,
			// so a small b lands in window and anything else does not.
			fl := r.index[endpointKey(keyInit, netstack.ProtoTCP, lcInit, sport, 0, 0)]
			initSeq, csSeq, respSeq, nonce := uint32(7001), uint32(1001), uint32(501), uint16(0)
			if fl != nil {
				initSeq, csSeq, respSeq, nonce = fl.initNextSeq, fl.csNextSeq, fl.respNextSeq, fl.noncePort
			}
			off := uint32(int32(int8(b)))
			switch op & 0x38 {
			case fromInit:
				inject(rig.trunk, inmate, lcInit, lcResp,
					&netstack.TCP{SrcPort: sport, DstPort: 80, Seq: initSeq + off, Ack: 1001, Flags: a & 0x3f, Window: 65535}, fill(c))
			case fromCS:
				inject(rig.trunk, service, csIP, lcInit,
					&netstack.TCP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: sport, Seq: csSeq + off, Ack: initSeq, Flags: a & 0x3f, Window: 65535}, fill(c))
			case verdict:
				inject(rig.trunk, service, csIP, lcInit,
					&netstack.TCP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: sport, Seq: csSeq + off, Ack: initSeq, Flags: ack | psh, Window: 65535}, response(a, fill(c)))
			case nonceLeg:
				inject(rig.trunk, service, csIP, r.cfg.NonceIP,
					&netstack.TCP{SrcPort: 50000 + uint16(c&1), DstPort: nonce, Seq: 9000 + off, Ack: respSeq, Flags: a & 0x3f, Window: 65535}, fill(c))
			case fromResp:
				seg := &netstack.TCP{SrcPort: 80, DstPort: sport, Seq: respSeq + off, Ack: initSeq, Flags: a & 0x3f, Window: 65535}
				if a&0x40 != 0 {
					inject(rig.trunk, peer, lcPeer, global, seg, fill(c))
				} else {
					inject(rig.outside, outside, lcResp, global, seg, fill(c))
				}
			case udp:
				dst := lcResp
				if a&4 != 0 {
					dst = lcResp2
				}
				if u := r.index[endpointKey(keyInit, netstack.ProtoUDP, lcInit, sport, dst, 80)]; u != nil {
					nonce = u.noncePort
				}
				switch a % 4 {
				case 0:
					inject(rig.trunk, inmate, lcInit, dst, &netstack.UDP{SrcPort: sport, DstPort: 80}, fill(c))
				case 1:
					inject(rig.trunk, service, csIP, lcInit, &netstack.UDP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: nonce}, response(b, fill(c)))
				case 2:
					if a&8 != 0 {
						inject(rig.trunk, peer, lcPeer, global, &netstack.UDP{SrcPort: 80, DstPort: sport}, fill(c))
					} else {
						inject(rig.outside, outside, dst, global, &netstack.UDP{SrcPort: 80, DstPort: sport}, fill(c))
					}
				case 3:
					inject(rig.trunk, service, csIP, lcInit, &netstack.UDP{SrcPort: r.cfg.ContainmentCluster[0].Port, DstPort: nonce}, fill(c))
				}
			case control:
				switch a % 5 {
				case 0:
					rig.s.RunFor(30 * time.Second) // one sweep
				case 1:
					r.shedLRU()
				case 2:
					r.SetLockdown(true, "fuzz")
				case 3:
					r.SetLockdown(false, "")
				case 4:
					r.FailCloseEndpoint(0, "fuzz")
				}
			case wait:
				rig.s.RunFor(time.Duration(a) * 100 * time.Millisecond)
			}
			checkIndex(op)
		}

		rig.s.RunFor(spliceIdleTimeout + 2*time.Minute)
		if n := len(r.index); n != 0 {
			t.Errorf("%d flow-index entries left past the sweep horizon", n)
		}
		for i, rec := range r.Records() {
			if !rec.Closed {
				t.Errorf("record %d (%v:%d proto %d, verdict %v %q) not closed",
					i, rec.OrigIP, rec.OrigPort, rec.Proto, rec.Verdict, rec.Annotation)
			}
		}
		if got, want := rig.journal.count(obs.EvFlowClosed), len(r.Records()); got != want {
			t.Errorf("%d flow.closed events for %d flows", got, want)
		}
	})
}
