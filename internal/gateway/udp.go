package gateway

import (
	"time"

	"gq/internal/netstack"
	"gq/internal/shim"
)

// UDP containment pads datagrams with shims rather than splicing sequence
// space: the first initiator datagram travels to the containment server
// prefixed with the request shim, and the server's reply leads with the
// response shim. In REWRITE mode every subsequent datagram keeps being
// shim-wrapped so the server stays in the path (impersonating destinations
// as needed); endpoint-control verdicts relay datagrams directly.

const udpQueueCap = 64

// udpIdleTimeout expires UDP flow state.
const udpIdleTimeout = 2 * time.Minute

func (f *Flow) udpFromInitiator(p *netstack.Packet) {
	f.rec.BytesOrig += uint64(len(p.Payload))
	switch f.state {
	case fsAwaitVerdict:
		// Every pre-verdict datagram is queued for post-verdict replay to
		// the actual responder; the first one additionally travels to the
		// containment server wrapped with the request shim.
		if q := &f.needRare().udpQueue; len(*q) < udpQueueCap {
			*q = append(*q, append([]byte(nil), p.Payload...))
		}
		if !f.shimSent {
			f.shimSent = true
			f.sendUDPToCS(p.Payload)
		}

	case fsSplice:
		f.forwardUDPToResponder(p.Payload)

	case fsRewriteProxy:
		f.sendUDPToCS(p.Payload)

	case fsDropped, fsClosed:
		// Contained: silence. UDP has no reset to send.
	}
}

// sendUDPToCS wraps a datagram payload with the request shim and delivers
// it to the containment server.
func (f *Flow) sendUDPToCS(payload []byte) {
	wrapped := append(f.requestShim(), payload...)
	// Source the datagram from the flow's nonce port so the containment
	// server's reply demultiplexes to this flow even when one inmate
	// socket talks to many destinations.
	f.sendToCS(f.r.newDatagram(f.initIP, f.cs.IP, f.noncePort, f.cs.Port, wrapped))
}

// udpFromCS handles containment-server datagrams: a response shim followed
// by optional payload for the initiator.
func (f *Flow) udpFromCS(p *netstack.Packet) {
	resp := &f.r.respIn.Resp
	n, err := f.r.respIn.Decode(p.Payload)
	if err != nil {
		return // not shim-framed: drop
	}
	rest := p.Payload[n:]

	if f.state == fsAwaitVerdict {
		f.applyVerdictUDP(resp)
	}
	if len(rest) > 0 && f.state != fsDropped && f.state != fsClosed {
		f.rec.BytesResp += uint64(len(rest))
		f.datagramToInitiator(rest)
	}
}

// applyVerdictUDP enacts a verdict on a UDP flow and flushes the queue.
func (f *Flow) applyVerdictUDP(resp *shim.Response) {
	f.adoptVerdict(resp)
	f.r.register(f, f.keys()[keyActual])

	v := resp.Verdict
	var queue [][]byte
	if f.rare != nil {
		queue, f.rare.udpQueue = f.rare.udpQueue, nil
	}
	switch {
	case v.Has(shim.Drop):
		f.state = fsDropped
		f.scheduleClose(5 * time.Second)
	case v.Has(shim.Rewrite):
		f.state = fsRewriteProxy
		// The first queued datagram already reached the server with the
		// request shim; re-wrap only the ones queued after it.
		if len(queue) > 0 {
			queue = queue[1:]
		}
		for _, d := range queue {
			f.sendUDPToCS(d)
		}
	default:
		if v.Has(shim.Limit) {
			f.bucket = newTokenBucket(limitRateBytesPerSec, limitBurstBytes, f.r.sim)
		}
		f.state = fsSplice
		for _, d := range queue {
			f.forwardUDPToResponder(d)
		}
	}
}

// forwardUDPToResponder relays a datagram to the actual responder.
func (f *Flow) forwardUDPToResponder(payload []byte) {
	if f.bucket != nil && !f.bucket.take(len(payload)) {
		f.r.LimitDrops.Inc()
		return
	}
	rt, ok := f.responderRoute()
	if !ok {
		return
	}
	f.sendViaRoute(rt, f.r.newDatagram(rt.srcIP, rt.dstIP, f.initPort, f.actualPort, payload))
}

// udpFromResponder relays responder datagrams back, impersonating the
// original destination.
func (f *Flow) udpFromResponder(p *netstack.Packet) {
	if f.state != fsSplice {
		return
	}
	f.rec.BytesResp += uint64(len(p.Payload))
	f.datagramToInitiator(p.Payload)
}

// datagramToInitiator originates a datagram toward the initiator in the
// original responder's name.
func (f *Flow) datagramToInitiator(payload []byte) {
	f.deliverToInitiator(f.r.newDatagram(f.respIP, f.initIP, f.respPort, f.initPort, payload))
}
