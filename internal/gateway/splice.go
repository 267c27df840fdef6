package gateway

import (
	"slices"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// LIMIT verdict throttling: a rate-limited flow's sustained payload rate
// and its token-bucket burst.
const (
	limitRateBytesPerSec = 16 * 1024
	limitBurstBytes      = 32 * 1024
)

// route describes where a flow's actual responder lives and how packets to
// it must be addressed.
type route struct {
	srcIP    netstack.Addr // initiator address as the responder will see it
	dstIP    netstack.Addr
	vlan     uint16 // destination VLAN (0 => external via the outside port)
	external bool
}

// responderRoute resolves the actual responder's location.
func (f *Flow) responderRoute() (route, bool) {
	cfg := f.r.cfg
	initSrc := func() (netstack.Addr, bool) {
		if f.inbound {
			return f.initIP, true // already an external address
		}
		if f.initGlobal == 0 {
			if b := f.r.nat.ByVLAN(f.vlan); b != nil {
				f.initGlobal = b.Global
			}
		}
		return f.initGlobal, f.initGlobal != 0
	}
	switch {
	case cfg.GlobalPool.Contains(f.actualIP):
		// An inmate addressed by its global address (e.g. FORWARD of an
		// inbound flow): translate.
		b := f.r.nat.ByGlobal(f.actualIP)
		if b == nil {
			return route{}, false
		}
		src := f.initIP
		return route{srcIP: src, dstIP: b.Internal, vlan: b.VLAN}, true
	case cfg.InternalPrefix.Contains(f.actualIP):
		// Another inmate (worm-style redirection). Source must route back
		// through the gateway, so use the initiator's global address.
		vlan, ok := f.r.inmateVLAN[f.actualIP]
		if !ok {
			return route{}, false
		}
		src, ok := initSrc()
		if !ok {
			return route{}, false
		}
		return route{srcIP: src, dstIP: f.actualIP, vlan: vlan}, true
	case cfg.ServicePrefix.Contains(f.actualIP):
		vlan, ok := f.r.serviceVLANFor(f.actualIP)
		if !ok {
			return route{}, false
		}
		return route{srcIP: f.initIP, dstIP: f.actualIP, vlan: vlan}, true
	default:
		src, ok := initSrc()
		if !ok {
			return route{}, false
		}
		return route{srcIP: src, dstIP: f.actualIP, external: true}, true
	}
}

// sendViaRoute addresses and transmits a packet along a route.
func (f *Flow) sendViaRoute(rt route, p *netstack.Packet) {
	p.IP.Src = rt.srcIP
	p.IP.Dst = rt.dstIP
	if rt.external {
		f.r.sendOutside(p)
		return
	}
	f.r.sendToVLAN(p, rt.vlan)
}

// dialResponder begins the gateway-driven handshake with the actual
// responder, re-using the initiator's ISN so post-verdict bytes relay
// without translation on the initiator->responder direction.
func (f *Flow) dialResponder() {
	rt, ok := f.responderRoute()
	if !ok {
		f.resetInitiator()
		f.close("actual responder unroutable")
		return
	}
	f.sender = newGwSender(f, rt)
	f.sender.sendSYN()
}

// fromResponder handles packets from the flow's actual responder.
func (f *Flow) fromResponder(p *netstack.Packet) {
	f.touch()
	if f.proto == netstack.ProtoUDP {
		f.udpFromResponder(p)
		return
	}
	t := p.TCP

	// Rewrite-proxy flows with a live leg 2 route responder traffic back
	// to the containment server.
	if f.state == fsRewriteProxy {
		f.leg2FromResponder(p)
		return
	}

	switch f.state {
	case fsEstablishing:
		if t.Flags&netstack.FlagRST != 0 {
			// Responder refused: propagate as the impersonated original.
			f.resetInitiator()
			f.close("responder refused connection")
			return
		}
		if t.Flags&netstack.FlagSYN == 0 || t.Flags&netstack.FlagACK == 0 {
			return
		}
		f.targetISN = t.Seq
		f.respNextSeq = t.Seq + 1
		f.seqDelta = f.csISN - f.targetISN
		f.state = fsSplice
		f.sender.onEstablished()

	case fsSplice:
		if t.Flags&netstack.FlagRST != 0 {
			// The initiator gets a bare reset: no window, no urgent
			// pointer, no data.
			t.Window, t.Urgent, p.Payload = 0, 0, nil
			f.relayRespSegmentToInit(p)
			f.close("responder reset")
			return
		}
		if f.sender != nil && t.Flags&netstack.FlagACK != 0 {
			f.sender.onAck(t.Ack)
		}
		if len(p.Payload) > 0 && t.Seq == f.respNextSeq {
			f.respNextSeq += uint32(len(p.Payload))
			f.rec.BytesResp += uint64(len(p.Payload))
		}
		if t.Flags&netstack.FlagFIN != 0 {
			if t.Seq+uint32(len(p.Payload)) == f.respNextSeq {
				f.respNextSeq++
			}
			f.finResp = true
		}
		f.relayRespSegmentToInit(p)
		f.maybeFinish()

	case fsDropped, fsClosed:
		// Late responder traffic: reset it.
		if t.Flags&netstack.FlagRST == 0 && f.sender != nil {
			f.sender.sendRST()
		}
	}
}

// relayRespSegmentToInit rewrites a spliced responder segment in place to
// impersonate the original destination, translated into the containment
// server's sequence space (consumes the packet). What reaches the initiator
// is byte for byte the frame a packet built from these header fields would
// marshal to — Canonicalize drops anything else the responder's frame
// carried — but an ordinary segment keeps its buffer and pays an
// incremental checksum update instead of a rebuild.
func (f *Flow) relayRespSegmentToInit(p *netstack.Packet) {
	t := p.TCP
	t.SrcPort, t.DstPort = f.respPort, f.initPort
	t.Seq += f.seqDelta
	p.Canonicalize()
	f.impersonateResponder(p)
	f.deliverToInitiator(p)
}

// spliceFromInitiator relays initiator segments to the responder after the
// verdict, applying LIMIT throttling.
func (f *Flow) spliceFromInitiator(p *netstack.Packet) {
	t := p.TCP
	rt, ok := f.responderRoute()
	if !ok {
		return
	}
	if t.Flags&netstack.FlagRST != 0 {
		t.SrcPort = f.initPort
		t.DstPort = f.actualPort
		if t.Flags&netstack.FlagACK != 0 {
			t.Ack -= f.seqDelta
		}
		f.sendViaRoute(rt, p)
		f.close("initiator reset")
		return
	}
	if f.bucket != nil && len(p.Payload) > 0 && !f.bucket.take(len(p.Payload)) {
		// Over the rate limit: drop; the initiator's stack retransmits,
		// which is exactly the throttling effect LIMIT wants.
		f.r.LimitDrops.Inc()
		return
	}
	if t.Flags&netstack.FlagFIN != 0 {
		f.finInit = true
	}
	t.SrcPort = f.initPort
	t.DstPort = f.actualPort
	if t.Flags&netstack.FlagACK != 0 {
		t.Ack -= f.seqDelta
	}
	f.sendViaRoute(rt, p)
	f.maybeFinish()
}

// abortResponder resets the responder leg (initiator gave up mid-dial).
func (f *Flow) abortResponder() {
	if f.sender != nil {
		f.sender.sendRST()
	}
}

// --- leg 2: containment server <-> responder for REWRITE flows ---

// leg2Open handles the containment server's SYN to the nonce port.
func (f *Flow) leg2Open(p *netstack.Packet) {
	key, _ := p.FlowKey()
	f.r.register(f, leg2Key(key))
	f.leg2FromCS(p)
}

// leg2FromCS forwards CS->responder packets, rewriting the CS's nonce
// connection to look like the original initiator (Fig. 5: the forwarded
// leg-2 SYN carries the inmate's endpoint).
func (f *Flow) leg2FromCS(p *netstack.Packet) {
	f.touch()
	rt, ok := f.responderRoute()
	if !ok {
		return
	}
	sport, dport := l4Ports(p)
	*sport, *dport = f.initPort, f.actualPort
	f.rec.BytesOrig += uint64(len(p.Payload))
	f.sendViaRoute(rt, p)
}

// leg2FromResponder forwards responder->CS packets back over the nonce
// connection.
func (f *Flow) leg2FromResponder(p *netstack.Packet) {
	f.touch()
	p.IP.Src = f.r.cfg.NonceIP
	leg2 := f.leg2()
	p.IP.Dst = leg2.ip
	sport, dport := l4Ports(p)
	*sport, *dport = f.noncePort, leg2.port
	f.rec.BytesResp += uint64(len(p.Payload))
	f.r.sendToVLAN(p, f.cs.VLAN)
}

// --- gateway-synthesised TCP sender ---

// gwSender owns the gateway's own TCP voice toward a flow's actual
// responder: the phase-2 handshake and the replay of payload the initiator
// sent during phase 1 (which the containment server already acknowledged,
// so the initiator will not retransmit it).
type gwSender struct {
	f  *Flow
	rt route

	una     uint32 // lowest unacknowledged sequence number
	nextSeq uint32
	dead    bool
	retries uint8 // timeouts since the last ACK: the seventh gives up
	pending []gwSeg
	// replay is the flow's initPayload, taken over at onEstablished: the
	// bytes pending's segments lie in. It goes back to the frame list when
	// nothing more can be sent from it (releaseReplay).
	replay []byte

	timer sim.Timer
}

// replaySegment is the most phase-1 payload one replayed segment carries.
const replaySegment = 1400

type gwSeg struct {
	seq     uint32
	payload []byte
	fin     bool
}

func newGwSender(f *Flow, rt route) *gwSender {
	s := &gwSender{f: f, rt: rt, una: f.initISS, nextSeq: f.initISS}
	s.timer.Init(f.r.sim, s.retransmit)
	return s
}

func (s *gwSender) sendSYN() {
	s.transmit(s.f.initISS, 0, netstack.FlagSYN, nil)
	s.una = s.f.initISS
	s.nextSeq = s.f.initISS + 1
	s.arm()
}

// onEstablished completes the handshake and replays buffered payload. The
// first replayed segment carries the handshake ACK; a pure one goes out
// only when there is nothing to replay.
func (s *gwSender) onEstablished() {
	s.una = s.nextSeq
	s.retries = 0
	s.timer.Stop()
	// Queue the phase-1 payload and, if the initiator already closed, its
	// FIN, on the last data segment if there is one, in a pending made once
	// to fit them.
	s.replay, s.f.initPayload = s.f.initPayload, nil
	data := s.replay
	fin := s.f.initFin && !s.f.initAborted
	segs := (len(data) + replaySegment - 1) / replaySegment
	if fin && segs == 0 {
		segs = 1
	}
	s.pending = slices.Grow(s.pending, segs)
	for len(data) > 0 {
		n := min(len(data), replaySegment)
		s.pending = append(s.pending, gwSeg{seq: s.nextSeq, payload: data[:n], fin: fin && n == len(data)})
		s.nextSeq += uint32(n)
		data = data[n:]
	}
	if fin {
		if len(s.replay) == 0 {
			s.pending = append(s.pending, gwSeg{seq: s.nextSeq, fin: true})
		}
		s.nextSeq++
		s.f.finInit = true
	}
	if len(s.pending) > 0 {
		s.flush()
		s.arm()
	} else {
		s.transmit(s.nextSeq, s.f.respNextSeq, netstack.FlagACK, nil)
		if s.f.initAborted {
			// Nothing to replay and the initiator is gone: reset at once.
			// The ACK before it lets the responder accept the conn the
			// reset ends, as it saw the initiator's own.
			s.sendRST()
			s.f.scheduleClose(time.Second)
		}
	}
	s.f.maybeFinish()
}

func (s *gwSender) flush() {
	for _, seg := range s.pending {
		flags := uint8(netstack.FlagACK)
		if len(seg.payload) > 0 {
			flags |= netstack.FlagPSH
		}
		if seg.fin {
			flags |= netstack.FlagFIN
		}
		s.transmit(seg.seq, s.f.respNextSeq, flags, seg.payload)
	}
}

func (s *gwSender) onAck(ack uint32) {
	if s.dead || int32(ack-s.una) <= 0 {
		return
	}
	s.una = ack
	s.retries = 0
	kept := s.pending[:0]
	for _, seg := range s.pending {
		end := seg.seq + uint32(len(seg.payload))
		if seg.fin {
			end++
		}
		if int32(ack-end) < 0 {
			kept = append(kept, seg)
		}
	}
	s.pending = kept
	if len(s.pending) == 0 {
		s.timer.Stop()
		s.releaseReplay()
		if s.f.initAborted && !s.dead {
			// Replay delivered; mirror the initiator's abrupt teardown.
			s.sendRST()
			s.f.scheduleClose(time.Second)
		}
	}
}

// transmit originates a segment toward the actual responder in the
// initiator's name.
func (s *gwSender) transmit(seq, ack uint32, flags uint8, payload []byte) {
	f := s.f
	f.sendViaRoute(s.rt, f.r.newSegment(s.rt.srcIP, s.rt.dstIP, f.initPort, f.actualPort, seq, ack, flags, payload))
}

func (s *gwSender) sendRST() {
	s.transmit(s.nextSeq, s.f.respNextSeq, netstack.FlagRST|netstack.FlagACK, nil)
	s.stop()
}

func (s *gwSender) arm() { s.timer.Reset(time.Second) }

func (s *gwSender) retransmit() {
	if s.dead {
		return
	}
	s.retries++
	s.f.r.Retransmits.Inc()
	if s.retries > 6 {
		// Responder unresponsive: give the initiator a reset from the
		// impersonated destination and close.
		s.f.resetInitiator()
		s.f.close("responder unresponsive")
		return
	}
	if s.f.state == fsEstablishing {
		s.transmit(s.f.initISS, 0, netstack.FlagSYN, nil)
	} else {
		s.flush()
	}
	s.arm()
}

func (s *gwSender) stop() {
	s.dead = true
	s.timer.Stop()
	s.releaseReplay()
}

// releaseReplay gives the replay buffer back once every segment in it is
// acknowledged or the sender has stopped.
func (s *gwSender) releaseReplay() {
	s.f.r.hand.put(s.replay)
	s.replay = nil
}

// --- token bucket for LIMIT ---

type tokenBucket struct {
	rate   float64 // tokens (bytes) per second
	burst  float64
	tokens float64
	last   time.Duration
	sim    *sim.Simulator
}

func newTokenBucket(rate, burst int, s *sim.Simulator) *tokenBucket {
	return &tokenBucket{
		rate: float64(rate), burst: float64(burst),
		tokens: float64(burst), last: s.Now(), sim: s,
	}
}

func (b *tokenBucket) take(n int) bool {
	now := b.sim.Now()
	b.tokens += b.rate * (now - b.last).Seconds()
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}
