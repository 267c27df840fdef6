package gateway

import (
	"gq/internal/netstack"
	"gq/internal/shim"
)

// Containment-plane health plumbing. The supervisor (internal/supervisor)
// owns the policy — probe cadence, miss thresholds, restarts — while the
// router owns the mechanism: it crafts heartbeat probes onto the service
// VLAN wire, demultiplexes the echoes, mirrors per-endpoint health for
// dispatch, and fail-closes the flows a dead endpoint strands. Everything
// here runs in the router's simulation domain.

// healthProbePortBase is the first gateway-side UDP source port used for
// heartbeat probes (endpoint i probes from healthProbePortBase+i). The
// range sits below the nonce-port space (40000+), so probe echoes can never
// collide with a flow's nonce demultiplexing.
const healthProbePortBase = 39000

// endpointAt returns cluster member idx.
func (r *Router) endpointAt(idx int) (ContainmentEndpoint, bool) {
	if idx < 0 || idx >= len(r.cfg.ContainmentCluster) {
		return ContainmentEndpoint{}, false
	}
	return r.cfg.ContainmentCluster[idx], true
}

// SetHealthObserver registers the callback receiving heartbeat echoes
// (endpoint index, echoed sequence number). One observer — the supervisor.
func (r *Router) SetHealthObserver(fn func(idx int, seq uint64)) {
	r.onHealthReply = fn
}

// SendHealthProbe emits one heartbeat probe to containment endpoint idx
// over the shim channel: a UDP datagram from the gateway's nonce address,
// exactly like a flow's shim-wrapped datagrams but carrying a heartbeat
// message no flow accounting will ever count. A live server echoes it; a
// dead one lets the deadline lapse.
func (r *Router) SendHealthProbe(idx int, seq uint64) {
	ep, ok := r.endpointAt(idx)
	if !ok {
		return
	}
	port := uint16(healthProbePortBase + idx)
	r.healthPorts[port] = idx
	hb := shim.Heartbeat{Seq: seq}
	r.sendToVLAN(r.newDatagram(r.cfg.NonceIP, ep.IP, port, ep.Port, hb.AppendTo(r.shimOut[:0])), ep.VLAN)
}

// handleHealthReply delivers a heartbeat echo (a containment-server UDP
// datagram that matched no flow nonce) to the health observer.
func (r *Router) handleHealthReply(key netstack.FlowKey, p *netstack.Packet) {
	idx, ok := r.healthPorts[key.DstPort]
	if !ok || r.onHealthReply == nil || p.UDP == nil {
		return
	}
	hb, err := shim.UnmarshalHeartbeat(p.Payload)
	if err != nil {
		return
	}
	r.onHealthReply(idx, hb.Seq)
}

// SetEndpointHealth mirrors the supervisor's health verdict for endpoint
// idx into dispatch state: containmentFor skips unhealthy members.
func (r *Router) SetEndpointHealth(idx int, healthy bool) {
	if idx < 0 || idx >= len(r.csDown) {
		return
	}
	r.csDown[idx] = !healthy
}

// FailCloseEndpoint resolves every flow pinned to containment endpoint idx
// that still depends on it — awaiting a verdict, or mid-rewrite-proxy —
// fail-closed: synthetic Drop verdict, RST both legs, flow table entry
// gone. Post-verdict endpoint-control flows (splice, establishing) don't
// touch the containment server anymore and are left alone. Returns the
// number of flows resolved.
func (r *Router) FailCloseEndpoint(idx int, reason string) int {
	ep, ok := r.endpointAt(idx)
	if !ok {
		return 0
	}
	doomed := r.liveFlows(func(f *Flow) bool {
		return f.cs == ep && (f.state == fsAwaitVerdict || f.state == fsRewriteProxy)
	})
	for _, f := range doomed {
		f.failClose(reason)
	}
	return len(doomed)
}
