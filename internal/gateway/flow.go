package gateway

import (
	"time"

	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/shim"
	"gq/internal/sim"
)

// FlowRecord is the per-flow accounting GQ's reporting consumes: the
// original and actual endpoints, the verdict and policy that produced them,
// and payload byte counts.
type FlowRecord struct {
	Subfarm string
	VLAN    uint16
	Proto   uint8
	Inbound bool // initiator is outside the farm

	OrigIP   netstack.Addr // initiator
	OrigPort uint16
	RespIP   netstack.Addr // destination as the initiator addressed it
	RespPort uint16

	ActualRespIP   netstack.Addr // destination after containment
	ActualRespPort uint16

	Verdict    shim.Verdict
	Policy     string
	Annotation string

	Start, VerdictAt, End time.Duration
	BytesOrig, BytesResp  uint64
	Closed                bool

	// FailClosed marks a flow resolved by the gateway's fail-closed path
	// (containment server lost, or await-verdict deadline exceeded) rather
	// than by a verdict from the wire. A fail-closed flow that still had a
	// pending verdict carries no Policy; one whose server died after
	// adjudication (mid-rewrite) keeps its policy name. Reporting uses the
	// distinction to reconcile verdicts_applied against the records.
	FailClosed bool
}

type flowState uint8

const (
	fsAwaitVerdict flowState = iota // phase 1: initiator <-> containment server
	fsEstablishing                  // phase 2 setup: handshaking with the actual responder
	fsSplice                        // phase 2: gateway-enforced endpoint control
	fsRewriteProxy                  // phase 2: containment server stays in path
	fsDropped
	fsClosed
)

// Flow is the gateway's per-flow state. Its fields are ordered to leave
// almost no padding, and the state only some flows use is kept apart in
// rare: it is 216 bytes, within the 256 TestFlowFitsSizeClass allows.
type Flow struct {
	r   *Router
	rec *FlowRecord

	initIP     netstack.Addr // initiator endpoint (internal addr for inmates)
	respIP     netstack.Addr // original destination
	initGlobal netstack.Addr // NAT'd initiator address for external responders
	actualIP   netstack.Addr // post-verdict responder
	vlan       uint16        // the inmate's VLAN (initiator for outbound, responder for inbound)
	initPort   uint16
	respPort   uint16
	actualPort uint16
	proto      uint8
	inbound    bool
	state      flowState

	// TCP phase 1: shim bookkeeping (Fig. 5).
	initISS   uint32 // initiator's ISN
	csISN     uint32 // containment server's ISN (the "server ISN" the initiator saw)
	c2sShim   uint32 // bytes injected initiator->CS
	s2cShim   uint32 // bytes stripped CS->initiator
	csNextSeq uint32 // next expected sequence number from the CS on leg 1
	noncePort uint16
	haveCSISN bool
	shimSent  bool

	// Initiator payload buffered during phase 1 for replay to the actual
	// responder after the verdict, in a buffer from the domain's frame list
	// (bufferInit). The gwSender takes it over at onEstablished; a flow that
	// never gets that far gives it back when it closes.
	initPayload []byte
	initNextSeq uint32
	initFin     bool
	// initAborted: the initiator reset the connection (common for exploit
	// payloads) — buffered bytes must still reach the responder after the
	// verdict, then the responder leg is reset too.
	initAborted bool
	// Teardown tracking: each side's FIN.
	finInit, finResp bool

	// Phase 2 splice state.
	targetISN   uint32
	respNextSeq uint32 // next expected sequence number from the responder
	seqDelta    uint32 // responder->initiator: seq_initiator_view = seq + seqDelta

	// cs is the containment server handling this flow (sticky per inmate
	// when a cluster is configured).
	cs     ContainmentEndpoint
	sender *gwSender

	// Rate limiting for LIMIT verdicts.
	bucket *tokenBucket

	// rare is made on first use (needRare).
	rare *rareState

	// linger is the flow's one close timer, pending until lingerAt: the
	// earliest deadline any scheduleClose call has asked for.
	lastActivity time.Duration
	linger       sim.Timer
	lingerAt     time.Duration
}

// rareState is the state only some flows use: a response shim split across
// CS->initiator segments (csBuf, until it is whole; a whole one is decoded
// where it arrives), a UDP flow's phase-1 datagrams (udpQueue, so every UDP
// flow makes one), the containment server's end of the REWRITE leg-2 nonce
// connection (leg2, the one index key a flow stores rather than derives in
// keys), and the live UDP flows that share this one's keyActual, taken
// before and after it (older, newer; Router.register).
type rareState struct {
	csBuf        []byte
	udpQueue     [][]byte
	leg2         flowKey
	older, newer *Flow
}

// needRare returns f.rare, making it on first use.
func (f *Flow) needRare() *rareState {
	if f.rare == nil {
		f.rare = &rareState{}
	}
	return f.rare
}

// leg2 is the flow's leg-2 key, zero until the server dials leg 2.
func (f *Flow) leg2() flowKey {
	if f.rare == nil {
		return flowKey{}
	}
	return f.rare.leg2
}

func (f *Flow) now() time.Duration { return f.r.sim.Now() }

func (f *Flow) touch() { f.lastActivity = f.now() }

// keys are the index keys f owns, one slot per kind, zero where it owns none
// yet: keyActual until the verdict, keyLeg2 until the server dials leg 2.
func (f *Flow) keys() [numKeyKinds]flowKey {
	ks := [numKeyKinds]flowKey{
		keyInit:  endpointKey(keyInit, f.proto, f.initIP, f.initPort, f.respIP, f.respPort),
		keyNonce: nonceKey(f.noncePort),
		keyLeg2:  f.leg2(),
	}
	if f.actualIP != 0 {
		ks[keyActual] = endpointKey(keyActual, f.proto, f.initIP, f.initPort, f.actualIP, f.actualPort)
	}
	return ks
}

// event starts a journal event about this flow: the inmate VLAN and the
// five-tuple as the initiator addressed it, which every flow event carries.
func (f *Flow) event(typ string) obs.Event {
	return obs.Event{
		Type: typ, VLAN: f.vlan, Proto: f.proto,
		SrcIP: uint32(f.initIP), SrcPort: f.initPort,
		DstIP: uint32(f.respIP), DstPort: f.respPort,
	}
}

// newFlowRecord initialises accounting.
func (r *Router) newFlowRecord(f *Flow) *FlowRecord {
	rec := &FlowRecord{
		Subfarm: r.cfg.Name, VLAN: f.vlan, Proto: f.proto, Inbound: f.inbound,
		OrigIP: f.initIP, OrigPort: f.initPort,
		RespIP: f.respIP, RespPort: f.respPort,
		Start: r.sim.Now(),
	}
	r.records = append(r.records, rec)
	return rec
}

// dispatchInmateIP routes an IP packet that arrived from an inmate VLAN.
func (r *Router) dispatchInmateIP(p *netstack.Packet) {
	if p.IP.Dst == r.cfg.RouterIP {
		return // traffic to the gateway itself: no services offered
	}
	key, ok := p.FlowKey()
	if !ok {
		return
	}
	// Existing flow where this inmate is the initiator?
	if f := r.flowFromInitiator(key); f != nil {
		// A pure SYN with a new ISN on a known tuple is a fresh
		// incarnation — reverted inmates reuse ephemeral ports. Retire the
		// stale flow and adjudicate the new one from scratch.
		if !pureSYN(p) || p.TCP.Seq == f.initISS {
			f.fromInitiator(p)
			return
		}
		f.abortResponder()
		f.close("superseded by new incarnation")
	}
	// Existing flow where this inmate is the responder (inbound flows,
	// worm-style redirections)?
	if f := r.flowFromResponder(key); f != nil {
		f.fromResponder(p)
		return
	}
	// New outbound flow. Only pure SYNs create TCP state: not stray
	// mid-stream packets (stale after a revert), nor a SYN retransmission of
	// a flow that just failed closed — its initiator was already reset, and
	// admitting the copy in flight would double-count the incarnation.
	if p.TCP != nil {
		if !pureSYN(p) {
			return
		}
		tk := synTombKey{key.SrcIP, key.DstIP, key.SrcPort, key.DstPort, p.TCP.Seq}
		if exp, ok := r.synTombs[tk]; ok && r.sim.Now() <= exp {
			return
		}
	}
	if r.lockdownDrop() {
		return
	}
	if !r.safetyCheck(p.Eth.VLAN, p.IP.Dst) {
		return
	}
	f := r.newFlow(key, p.Eth.VLAN, false)
	f.fromInitiator(p)
}

// pureSYN reports whether p opens a TCP connection: SYN without ACK.
func pureSYN(p *netstack.Packet) bool {
	return p.TCP != nil && p.TCP.Flags&(netstack.FlagSYN|netstack.FlagACK) == netstack.FlagSYN
}

// newFlow creates and registers flow state for a new five-tuple.
func (r *Router) newFlow(key netstack.FlowKey, vlan uint16, inbound bool) *Flow {
	// Bounded table: shed the least-recently-active flow under pressure
	// instead of growing without limit.
	for r.ActiveFlows() >= r.maxFlows {
		if !r.shedLRU() {
			break
		}
	}
	r.FlowsCreated.Inc()
	f := &Flow{
		r: r, proto: key.Proto, vlan: vlan, inbound: inbound,
		initIP: key.SrcIP, initPort: key.SrcPort,
		respIP: key.DstIP, respPort: key.DstPort,
		state: fsAwaitVerdict,
	}
	if !inbound {
		if b := r.nat.ByVLAN(vlan); b != nil {
			f.initGlobal = b.Global
		}
	}
	f.linger.Init(r.sim, func() { f.close("") })
	f.cs = r.containmentFor(f.vlan)
	f.rec = r.newFlowRecord(f)
	f.noncePort = r.allocNonce()
	keys := f.keys()
	r.register(f, keys[keyInit])
	r.register(f, keys[keyNonce])
	r.FlowsActive.Set(int64(r.ActiveFlows()))
	r.sc.Emit(f.event(obs.EvFlowCreated))
	f.touch()
	return f
}

// handleFromOutside routes a packet arriving on the upstream interface with
// a destination in this subfarm's global pool.
func (r *Router) handleFromOutside(p *netstack.Packet) {
	key, ok := p.FlowKey()
	if !ok {
		return
	}
	// Existing flow with an external initiator, or a reply to an inmate's?
	if f := r.flowFromInitiator(key); f != nil && f.inbound {
		f.fromInitiator(p)
		return
	}
	if f := r.flowFromResponder(key); f != nil {
		f.fromResponder(p)
		return
	}
	if p.TCP != nil && p.TCP.Flags&netstack.FlagSYN == 0 {
		return // only a SYN opens an inbound TCP flow
	}
	// New inbound flow: subject to the NAT inbound mode. Inbound rewrites
	// the destination to the inmate's internal address in place; that is
	// harmless because the phase-1 path overwrites the destination again
	// (containment server) before the packet goes anywhere.
	if r.lockdownDrop() {
		return
	}
	b := r.nat.Inbound(p)
	if b == nil {
		return
	}
	// The initiator addressed the inmate's global address; that is the
	// original destination the containment server adjudicates.
	f := r.newFlow(key, b.VLAN, true)
	f.fromInitiator(p)
}

// dispatchServiceIP routes packets from service VLANs (containment server,
// sinks) addressed to the gateway.
func (r *Router) dispatchServiceIP(p *netstack.Packet) {
	key, ok := p.FlowKey()
	if !ok {
		return
	}
	// Containment server leg-1 traffic toward an initiator.
	if r.isContainmentEndpoint(key.SrcIP, key.SrcPort) {
		// Run the subfarm taps before the flow machinery strips the
		// response shim: the redirected initiator->CS frames are already
		// tapped on transmit, and trace auditing needs the CS's verdict
		// reply visible on the same wire.
		for _, t := range r.taps {
			t(p)
		}
		if f := r.flowFromCS(key); f != nil {
			f.fromCS(p)
			return
		}
		// Not a flow reply: perhaps a heartbeat echo for the supervisor
		// (probe source ports sit below the nonce range).
		r.handleHealthReply(key, p)
		return
	}
	// Nonce-port connections from the containment server (leg 2), opened by
	// a SYN to a TCP flow's nonce port.
	if key.DstIP == r.cfg.NonceIP {
		if f := r.index[leg2Key(key)]; f != nil {
			f.leg2FromCS(p)
			return
		}
		if f := r.index[nonceKey(key.DstPort)]; f != nil && f.proto == key.Proto && p.TCP != nil && p.TCP.Flags&netstack.FlagSYN != 0 {
			f.leg2Open(p)
		}
		return
	}
	// A service host (sink) acting as a flow responder?
	if f := r.flowFromResponder(key); f != nil {
		f.fromResponder(p)
		return
	}
	// Otherwise: infrastructure-originated traffic (e.g. the banner-
	// grabbing sink reaching out to a real MX). Statically NAT it into the
	// infrastructure pool, bypassing containment.
	if r.cfg.InfraPool.Bits == 0 {
		return // no infra egress configured
	}
	if r.cfg.InternalPrefix.Contains(key.DstIP) || r.cfg.ServicePrefix.Contains(key.DstIP) {
		return
	}
	g, ok := r.infraGlobalFor(key.SrcIP)
	if !ok {
		return
	}
	p.IP.Src = g
	r.sendOutside(p)
}

// infraGlobalFor allocates (or returns) a service host's infra-pool
// address.
func (r *Router) infraGlobalFor(svc netstack.Addr) (netstack.Addr, bool) {
	if g, ok := r.infraOut[svc]; ok {
		return g, true
	}
	if r.infraNext >= r.cfg.InfraPool.Size()-1 {
		return 0, false
	}
	g := r.cfg.InfraPool.Nth(r.infraNext)
	r.infraNext++
	r.infraOut[svc] = g
	r.infraIn[g] = svc
	return g, true
}

// handleInfraInbound delivers replies addressed to the infrastructure pool
// back to the owning service host.
func (r *Router) handleInfraInbound(p *netstack.Packet) {
	svc, ok := r.infraIn[p.IP.Dst]
	if !ok {
		return
	}
	p.IP.Dst = svc
	vlan, ok := r.serviceVLANFor(svc)
	if !ok {
		// Not registered as a responder; find it on any service VLAN.
		if len(r.cfg.ServiceVLANs) == 0 {
			return
		}
		vlan = r.cfg.ServiceVLANs[0]
	}
	r.sendToVLAN(p, vlan)
}

// --- phase 1: initiator <-> containment server ---

// sendToCS rewrites a packet's destination to the containment server and
// delivers it on the containment VLAN. The packet is consumed: it is
// patched in place and its buffer relinquished to the trunk.
func (f *Flow) sendToCS(p *netstack.Packet) {
	p.IP.Dst = f.cs.IP
	_, dport := l4Ports(p)
	*dport = f.cs.Port
	f.r.sendToVLAN(p, f.cs.VLAN)
}

// l4Ports returns the transport ports of a TCP or UDP packet, for rewriting
// in place. Everything past flow dispatch is one or the other.
func l4Ports(p *netstack.Packet) (src, dst *uint16) {
	if p.UDP != nil {
		return &p.UDP.SrcPort, &p.UDP.DstPort
	}
	return &p.TCP.SrcPort, &p.TCP.DstPort
}

// segmentHeaders and datagramHeaders are the header set of one packet the
// router originates: Packet, IP and transport header.
type segmentHeaders struct {
	pkt netstack.Packet
	ip  netstack.IPv4
	tcp netstack.TCP
}

type datagramHeaders struct {
	pkt netstack.Packet
	ip  netstack.IPv4
	udp netstack.UDP
}

// newSegment and newDatagram are the gateway's own voice: every packet it
// originates rather than relays — request shim, ACKs and resets in an
// endpoint's name, the phase-2 handshake and replay, shim-wrapped and
// unwrapped datagrams, heartbeat probes — is built by one of the two, fully
// addressed, and handed to sendToCS, deliverToInitiator or sendViaRoute
// (DESIGN.md §3g). The headers are the router's own set, zeroed whole and
// refilled by every build: the packet is valid until the send it is handed
// to returns, which marshals it (DESIGN.md §3b). A reset advertises no
// window, every other segment 65535.
func (r *Router) newSegment(src, dst netstack.Addr, sport, dport uint16, seq, ack uint32, flags uint8, payload []byte) *netstack.Packet {
	o := &r.segOut
	*o = segmentHeaders{
		ip:  netstack.IPv4{TTL: netstack.DefaultTTL, Src: src, Dst: dst},
		tcp: netstack.TCP{SrcPort: sport, DstPort: dport, Seq: seq, Ack: ack, Flags: flags, Window: 65535},
	}
	if flags&netstack.FlagRST != 0 {
		o.tcp.Window = 0
	}
	o.pkt.Eth.EtherType = netstack.EtherTypeIPv4
	o.pkt.IP, o.pkt.TCP, o.pkt.Payload = &o.ip, &o.tcp, payload
	return &o.pkt
}

func (r *Router) newDatagram(src, dst netstack.Addr, sport, dport uint16, payload []byte) *netstack.Packet {
	o := &r.dgramOut
	*o = datagramHeaders{
		ip:  netstack.IPv4{TTL: netstack.DefaultTTL, Src: src, Dst: dst},
		udp: netstack.UDP{SrcPort: sport, DstPort: dport},
	}
	o.pkt.Eth.EtherType = netstack.EtherTypeIPv4
	o.pkt.IP, o.pkt.UDP, o.pkt.Payload = &o.ip, &o.udp, payload
	return &o.pkt
}

// requestShim encodes the flow's containment request into the router's
// shim buffer: valid, like an originated packet, until the send it rides
// in returns. For an inbound flow OrigIP is the external initiator; the
// VLAN identifies the responding inmate.
func (f *Flow) requestShim() []byte {
	req := shim.Request{
		OrigIP: f.initIP, RespIP: f.respIP,
		OrigPort: f.initPort, RespPort: f.respPort,
		VLAN: f.vlan, NoncePort: f.noncePort,
	}
	return req.AppendTo(f.r.shimOut[:0])
}

// segmentToCS originates a segment on the containment-server leg in the
// initiator's name: the request shim, the ACK for the response shim, the
// reset that cuts the leg.
func (f *Flow) segmentToCS(seq, ack uint32, flags uint8, payload []byte) {
	f.sendToCS(f.r.newSegment(f.initIP, f.cs.IP, f.initPort, f.cs.Port, seq, ack, flags, payload))
}

// segmentToInitiator originates a segment toward the initiator in the
// original responder's name: resets, and rewrite-proxy bytes that arrived
// behind the shim. Segments relayed from a live peer are patched in place
// instead: relayCSSegmentToInit, relayRespSegmentToInit.
func (f *Flow) segmentToInitiator(seq, ack uint32, flags uint8, payload []byte) {
	f.deliverToInitiator(f.r.newSegment(f.respIP, f.initIP, f.respPort, f.initPort, seq, ack, flags, payload))
}

// deliverToInitiator routes an already-addressed packet to the initiator.
func (f *Flow) deliverToInitiator(p *netstack.Packet) {
	if f.inbound {
		f.r.sendOutside(p)
		return
	}
	f.r.sendToVLAN(p, f.vlan)
}

// bufferInit appends in-order initiator payload to initPayload for replay.
// When the buffer runs out of room, the bytes move to one from the frame
// list at least twice as large, and the old one goes back.
func (f *Flow) bufferInit(payload []byte) {
	if need := len(f.initPayload) + len(payload); need > cap(f.initPayload) {
		buf := append(f.r.hand.frames.Take(max(need, 2*cap(f.initPayload))), f.initPayload...)
		f.r.hand.put(f.initPayload)
		f.initPayload = buf
	}
	f.initPayload = append(f.initPayload, payload...)
	f.initNextSeq += uint32(len(payload))
}

func (f *Flow) fromInitiator(p *netstack.Packet) {
	f.touch()
	if f.proto == netstack.ProtoUDP {
		f.udpFromInitiator(p)
		return
	}
	t := p.TCP
	f.rec.BytesOrig += uint64(len(p.Payload))

	switch f.state {
	case fsAwaitVerdict:
		if t.Flags&netstack.FlagSYN != 0 {
			f.initISS = t.Seq
			f.initNextSeq = t.Seq + 1
			f.sendToCS(p)
			return
		}
		if t.Flags&netstack.FlagRST != 0 {
			// Abrupt initiator teardown before the verdict (exploit-style
			// write-and-reset). Keep the flow: the verdict still governs
			// what happens to the buffered payload.
			f.initFin = true
			f.initAborted = true
			return
		}
		if !f.shimSent && f.haveCSISN && t.Flags&netstack.FlagACK != 0 {
			if len(p.Payload) == 0 && t.Flags&netstack.FlagFIN == 0 {
				// Handshake-completing pure ACK: forward it, then inject
				// the request shim into the sequence space (Fig. 5).
				f.sendToCS(p)
				f.injectRequestShim()
				return
			}
			// Data arrived with the handshake ACK: the shim itself (which
			// carries ack=csISN+1) completes the handshake; the data is
			// then forwarded sequence-bumped behind it.
			f.injectRequestShim()
		}
		// Buffer payload for later replay (in-order; the simulated farm
		// links do not reorder).
		if len(p.Payload) > 0 && t.Seq == f.initNextSeq {
			f.bufferInit(p.Payload)
		}
		if t.Flags&netstack.FlagFIN != 0 {
			f.initFin = true
			f.initNextSeq++
		}
		f.forwardInitToCS(p)

	case fsEstablishing:
		// Waiting for the actual responder's handshake; keep buffering.
		if len(p.Payload) > 0 && t.Seq == f.initNextSeq {
			f.bufferInit(p.Payload)
		}
		if t.Flags&netstack.FlagFIN != 0 && t.Seq+uint32(len(p.Payload)) == f.initNextSeq {
			f.initFin = true
			f.initNextSeq++
		}
		if t.Flags&netstack.FlagRST != 0 {
			f.initFin = true
			f.initAborted = true
		}

	case fsSplice:
		f.spliceFromInitiator(p)

	case fsRewriteProxy:
		if t.Flags&netstack.FlagRST != 0 {
			f.forwardInitToCS(p)
			f.close("initiator reset")
			return
		}
		if t.Flags&netstack.FlagFIN != 0 {
			f.finInit = true
		}
		f.forwardInitToCS(p)
		f.maybeFinish()

	case fsDropped, fsClosed:
		// Residual packets of a contained flow: answer TCP with RST so the
		// inmate's stack gives up quickly.
		if t.Flags&netstack.FlagRST == 0 {
			f.rstInitiator(t)
		}
	}
}

// forwardInitToCS relays an initiator segment to the containment server,
// applying the shim sequence bump in place (consumes the packet).
func (f *Flow) forwardInitToCS(p *netstack.Packet) {
	if f.shimSent {
		p.TCP.Seq += f.c2sShim
		if p.TCP.Flags&netstack.FlagACK != 0 && f.s2cShim > 0 {
			p.TCP.Ack += f.s2cShim
		}
	}
	f.sendToCS(p)
}

// injectRequestShim sends the 24-byte containment request into the
// initiator->CS sequence space.
func (f *Flow) injectRequestShim() {
	f.segmentToCS(f.initISS+1, f.csISN+1, netstack.FlagACK|netstack.FlagPSH, f.requestShim())
	f.shimSent = true
	f.c2sShim = shim.RequestLen
}

// fromCS processes containment-server leg-1 packets toward the initiator.
func (f *Flow) fromCS(p *netstack.Packet) {
	f.touch()
	if f.proto == netstack.ProtoUDP {
		f.udpFromCS(p)
		return
	}
	t := p.TCP

	if t.Flags&netstack.FlagRST != 0 {
		// CS refused or tore down: propagate to initiator.
		f.segmentToInitiator(t.Seq, 0, netstack.FlagRST, nil)
		f.close("containment server reset")
		return
	}

	switch f.state {
	case fsAwaitVerdict:
		if t.Flags&netstack.FlagSYN != 0 {
			f.csISN = t.Seq
			f.csNextSeq = t.Seq + 1
			f.haveCSISN = true
			// Impersonate the original destination toward the initiator.
			f.relayCSSegmentToInit(p, nil)
			return
		}
		// The response shim nearly always arrives whole in the first data
		// segment and is decoded where it lies; csBuf only ever collects a
		// split one.
		if len(p.Payload) > 0 {
			if t.Seq == f.csNextSeq {
				f.csNextSeq += uint32(len(p.Payload))
				stream := p.Payload
				split := f.rare != nil && len(f.rare.csBuf) > 0
				if split {
					f.rare.csBuf = append(f.rare.csBuf, p.Payload...)
					stream = f.rare.csBuf
				}
				if !f.tryParseResponseShim(stream) && !split {
					f.needRare().csBuf = append([]byte(nil), p.Payload...)
				}
			}
			// Don't forward data to the initiator yet: everything so far
			// is shim bytes (handled above) in the await state.
			return
		}
		// Pure ACK from CS: relay with ack unbumping.
		f.relayCSSegmentToInit(p, nil)

	case fsRewriteProxy:
		if t.Flags&netstack.FlagFIN != 0 {
			f.finResp = true
		}
		f.rec.BytesResp += uint64(len(p.Payload))
		f.relayCSSegmentToInit(p, p.Payload)
		f.maybeFinish()

	case fsEstablishing, fsSplice, fsDropped, fsClosed:
		// The CS leg has been cut; ignore stragglers.
	}
}

// relayCSSegmentToInit rewrites a CS segment in place to impersonate the
// original responder and applies shim offsets (consumes the packet).
// payload is the application payload to deliver — nil for control segments
// whose buffered bytes (shim remnants) must not reach the initiator.
func (f *Flow) relayCSSegmentToInit(p *netstack.Packet, payload []byte) {
	t := p.TCP
	t.SrcPort = f.respPort
	t.DstPort = f.initPort
	t.Seq -= f.s2cShim
	if f.shimSent && t.Flags&netstack.FlagACK != 0 {
		t.Ack -= f.c2sShim
	}
	if len(payload) != len(p.Payload) {
		p.Payload = payload // forces the slow marshal path; rare
	}
	f.impersonateResponder(p)
	f.deliverToInitiator(p)
}

// impersonateResponder normalises the link and network headers of a
// segment relayed in place the way a freshly built packet would look: the
// initiator must see the impersonated responder, not the IP metadata of
// whoever really sent the segment.
func (f *Flow) impersonateResponder(p *netstack.Packet) {
	p.Eth.Priority = 0
	p.IP.TOS, p.IP.ID, p.IP.Flags, p.IP.FragOff = 0, 0, 0, 0
	p.IP.TTL = netstack.DefaultTTL
	p.IP.Src, p.IP.Dst = f.respIP, f.initIP
}

// tryParseResponseShim parses the CS stream so far as a response shim; on
// success it strips it and applies the verdict. It reports false while the
// shim is still incomplete, true once the stream has been dealt with.
func (f *Flow) tryParseResponseShim(stream []byte) bool {
	length, complete, err := shim.PeekLength(stream)
	if err != nil {
		// The CS spoke something other than shim protocol; contain hard.
		f.applyDrop("malformed response shim")
		return true
	}
	if !complete {
		return false
	}
	var resp shim.Response
	if _, err := resp.Unmarshal(stream[:length]); err != nil {
		f.applyDrop("bad response shim: " + err.Error())
		return true
	}
	if f.rare != nil {
		f.rare.csBuf = nil
	}
	f.s2cShim = uint32(length)

	// Acknowledge the CS bytes ourselves: the initiator never sees the
	// shim, so its own ACKs can't cover it.
	f.ackCS(f.csNextSeq)

	f.applyVerdict(&resp, stream[length:])
	return true
}

// ackCS sends a pure ACK to the containment server on leg 1.
func (f *Flow) ackCS(ackSeq uint32) {
	f.segmentToCS(f.initNextSeq+f.c2sShim, ackSeq, netstack.FlagACK, nil)
}

// rstCS cuts the containment-server leg: after an endpoint-control verdict,
// or as the CS half of reset.
func (f *Flow) rstCS() {
	f.segmentToCS(f.initNextSeq+f.c2sShim, f.csNextSeq, netstack.FlagRST|netstack.FlagACK, nil)
}

// rstInitiator answers a stray initiator segment with a reset from the
// impersonated responder.
func (f *Flow) rstInitiator(t *netstack.TCP) {
	seq := uint32(0)
	flags := netstack.FlagRST | netstack.FlagACK
	if t.Flags&netstack.FlagACK != 0 {
		seq = t.Ack
		flags = netstack.FlagRST
	}
	f.segmentToInitiator(seq, t.Seq, flags, nil)
}

// resetInitiator aborts the initiator's connection in the original
// responder's name. Once the SYN-ACK was relayed the reset continues the
// containment server's sequence space. Before that the initiator is still in
// SYN-SENT and retransmitting: RST|ACK acking its SYN aborts the connect, and
// a tombstone swallows any retransmitted SYN already in flight — either
// would re-admit the flow under the same ISN and break the trace audit's
// flow count.
func (f *Flow) resetInitiator() {
	seq := f.csISN + 1
	if !f.haveCSISN {
		seq = 0
		f.r.tombstone(synTombKey{f.initIP, f.respIP, f.initPort, f.respPort, f.initISS})
	}
	f.segmentToInitiator(seq, f.initNextSeq, netstack.FlagRST|netstack.FlagACK, nil)
}

// reset sends an RST down each leg the flow's state holds open — the one
// teardown every cause shares (DESIGN.md §3g); the caller meters, journals
// and closes. outward=false is the fail-close rule, nothing new leaves the
// farm: the responder leg of an establishing or spliced flow is left to time
// out rather than reset. UDP has no reset to send.
func (f *Flow) reset(outward bool) {
	if f.proto != netstack.ProtoTCP {
		return
	}
	switch f.state {
	case fsAwaitVerdict:
		// The CS leg too: a stalled verdict written after the teardown would
		// otherwise put an unaccounted response shim on the wire, and a live
		// CS-side connection would sit ESTABLISHED forever. Against a dead
		// server the RST just drops.
		f.resetInitiator()
		f.rstCS()
	case fsEstablishing, fsSplice:
		// The CS leg was cut at the verdict.
		if outward {
			f.abortResponder()
		}
		f.resetInitiator()
	case fsRewriteProxy:
		f.rstCS()
		f.resetInitiator()
	}
}

// applyDrop is the hard-containment path for protocol errors.
func (f *Flow) applyDrop(reason string) {
	f.rec.Verdict = shim.Drop
	f.rec.Annotation = reason
	f.rec.VerdictAt = f.now()
	f.recordVerdict(uint32(shim.Drop), reason)
	f.reset(true)
	f.state = fsDropped
	f.scheduleClose(5 * time.Second)
}

// failClose resolves a flow whose containment server is gone — crashed,
// quarantined, or stalled past the await-verdict deadline — or whose subfarm
// is locking down: record a synthetic Drop, reset the legs inward, and
// close. The flow never reached the outside (phase 1 only ever talks to the
// containment server; a rewrite proxy forwards nothing once its server is
// dead), so failing closed is the fate the paper's containment doctrine
// demands. Unlike applyDrop this does NOT count toward verdicts_applied — no
// verdict crossed the wire, and the trace audit (report.AuditTrace) checks
// exactly that equality — it is metered separately under flows_failclosed.
func (f *Flow) failClose(reason string) {
	if f.state == fsClosed || f.state == fsDropped {
		return
	}
	hadVerdict := f.rec.Verdict != 0
	f.rec.Verdict = shim.Drop
	f.rec.FailClosed = true
	if f.rec.Annotation == "" {
		f.rec.Annotation = reason
	}
	if !hadVerdict {
		f.rec.VerdictAt = f.now()
	}
	f.reset(false)
	f.r.FlowsFailClosed.Inc()
	e := f.event(obs.EvFlowFailClosed)
	e.Verdict, e.Detail = uint32(shim.Drop), reason
	f.r.sc.Emit(e)
	f.close(reason)
}

// adoptVerdict records the containment server's decision — on the flow, its
// record, the verdict counter, latency histogram and journal — and resolves
// the actual responder the resulting four-tuple names. TCP and UDP share
// it; what the verdict then does to the flow is theirs.
func (f *Flow) adoptVerdict(resp *shim.Response) {
	f.rec.Verdict = resp.Verdict
	f.rec.Policy = resp.PolicyName
	f.rec.Annotation = resp.Annotation
	f.rec.VerdictAt = f.now()
	f.recordVerdict(uint32(resp.Verdict), resp.PolicyName)

	f.actualIP, f.actualPort = resp.RespIP, resp.RespPort
	if f.actualIP == 0 {
		f.actualIP, f.actualPort = f.respIP, f.respPort
	}
	f.rec.ActualRespIP, f.rec.ActualRespPort = f.actualIP, f.actualPort
}

// applyVerdict enacts the containment server's decision.
func (f *Flow) applyVerdict(resp *shim.Response, extra []byte) {
	f.adoptVerdict(resp)
	v := resp.Verdict
	switch {
	case v.Has(shim.Drop):
		f.reset(true)
		f.state = fsDropped
		f.scheduleClose(5 * time.Second)

	case v.Has(shim.Rewrite):
		if f.initAborted {
			// Nothing left to proxy for: cut the CS leg.
			f.rstCS()
			f.scheduleClose(time.Second)
			return
		}
		// Content control: the CS stays in the path. Any bytes that
		// followed the shim are application data to relay.
		f.state = fsRewriteProxy
		if len(extra) > 0 {
			f.relayCSBytes(extra)
		}

	default:
		// Endpoint control: FORWARD, LIMIT, REDIRECT, REFLECT. The gateway
		// takes over; the CS leg is cut and the actual responder dialled.
		if v.Has(shim.Limit) {
			f.bucket = newTokenBucket(limitRateBytesPerSec, limitBurstBytes, f.r.sim)
		}
		f.state = fsEstablishing
		f.rstCS()
		f.dialResponder()
	}
}

// recordVerdict updates the verdict counter, latency histogram, and journal
// once a flow's verdict is known. detail names the policy (or drop reason).
func (f *Flow) recordVerdict(verdict uint32, detail string) {
	f.r.VerdictsApplied.Inc()
	f.r.VerdictLatencyUS.Observe(int64((f.rec.VerdictAt - f.rec.Start) / time.Microsecond))
	e := f.event(obs.EvFlowVerdict)
	e.Verdict, e.Detail = verdict, detail
	f.r.sc.Emit(e)
}

// relayCSBytes delivers rewrite-proxy payload that arrived in the same
// segments as the shim.
func (f *Flow) relayCSBytes(data []byte) {
	f.rec.BytesResp += uint64(len(data))
	f.segmentToInitiator(f.csNextSeq-uint32(len(data))-f.s2cShim, f.initNextSeq,
		netstack.FlagACK|netstack.FlagPSH, data)
}

// maybeFinish closes the record once both directions have FINed. It runs
// for every segment after that; scheduleClose keeps the first deadline.
func (f *Flow) maybeFinish() {
	if f.finInit && f.finResp {
		f.scheduleClose(10 * time.Second)
	}
}

// scheduleClose finalises the flow after a linger, unless an earlier call
// already asked for a deadline no later than this one: the flow closes at
// the earliest deadline requested, which is when the first of one event per
// call would have closed it (DESIGN.md §3g).
func (f *Flow) scheduleClose(after time.Duration) {
	at := f.now() + after
	if f.linger.Pending() && f.lingerAt <= at {
		return
	}
	f.lingerAt = at
	f.linger.Reset(after)
}

// close finalises accounting and removes lookup state.
func (f *Flow) close(reason string) {
	if f.state == fsClosed {
		return
	}
	f.state = fsClosed
	f.rec.End = f.now()
	f.rec.Closed = true
	if reason != "" && f.rec.Annotation == "" {
		f.rec.Annotation = reason
	}
	f.r.unregister(f)
	if f.sender != nil {
		f.sender.stop()
	}
	f.r.hand.put(f.initPayload)
	f.initPayload = nil
	f.linger.Stop()
	f.r.FlowsActive.Set(int64(f.r.ActiveFlows()))
	e := f.event(obs.EvFlowClosed)
	e.N, e.Detail = f.rec.BytesOrig+f.rec.BytesResp, reason
	f.r.sc.Emit(e)
}
