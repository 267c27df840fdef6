// Package gateway implements GQ's central gateway: the custom packet
// forwarding logic that sits between the outside network and the internal
// machinery (§5.1). It comprises a learning VLAN bridge for the restricted
// broadcast domain, per-subfarm packet routers (§6.1) that redirect new
// flows to containment servers via the shimming protocol, NAT, a safety
// filter, and trace taps.
//
// The gateway operates on raw frames: unlike every other machine in the
// farm it has no host TCP stack, because its job is to rewrite other
// machines' traffic in flight — including injecting and stripping shim
// bytes inside TCP sequence space (Fig. 5).
package gateway

import (
	"fmt"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// GatewayMAC is the hardware address the gateway uses on all interfaces.
var GatewayMAC = netstack.MAC{0x02, 0x47, 0x51, 0x00, 0x00, 0x01}

// Gateway is the central forwarding machine. One Gateway serves the whole
// farm; per-subfarm Routers attach to it and each handles a disjoint set of
// VLAN IDs (Fig. 3).
//
// In a sharded farm the Gateway core (outside interface, upstream ARP,
// proxy ARP over the global pools) lives in the root simulation domain
// while each Router — including its bridging state and trunk — lives in
// its subfarm's domain; the router<->core uplink is then the
// domain-crossing synchronization edge.
type Gateway struct {
	Sim *sim.Simulator

	trunk   *netsim.Port // tagged uplink into the inmate-network switch
	outside *netsim.Port // untagged upstream interface
	hand    *hand        // the gateway domain's frame list and received frame
	// Each receiving port parses into storage of its own: a packet on its
	// way through the routers is valid until the receive call returns.
	rxTrunk, rxOutside netstack.ParseBuf

	routers []*Router

	// Outside-interface ARP. Frames parked behind an unresolved neighbour
	// are marshalled and complete but for the destination MAC.
	outARP     map[netstack.Addr]netstack.MAC
	outPending *netsim.Waits[netstack.Addr, []byte]

	// upstreamTaps observe all frames crossing the outside interface, in
	// both directions — the system-wide trace recording point (§5.6).
	upstreamTaps []func(frame []byte)

	// bridgeTaps observe every unicast-bridged frame (post-retag), so a
	// trace can capture exactly the frames Bridged counts. Registered at
	// build time, read-only during a run (routers on other domains read
	// the slice).
	bridgeTaps []func(frame []byte)

	// Counters, registered once at construction (see internal/obs).
	TrunkRx, OutsideRx, Bridged *obs.Counter
	// GRETx/GRERx count tunnel packets each way.
	GRETx, GRERx *obs.Counter
	// ARPPendingDrops counts frames refused by a full ARP-pending queue, on
	// the outside interface or any router's VLAN side.
	ARPPendingDrops *obs.Counter
}

// New creates a gateway. Wire Trunk() into a switch trunk port and
// Outside() into the upstream network.
func New(s *sim.Simulator) *Gateway {
	g := &Gateway{
		Sim:    s,
		hand:   handOf(s),
		outARP: make(map[netstack.Addr]netstack.MAC),
	}
	g.outPending = netsim.NewWaits[netstack.Addr, []byte](s, g.arpOutside)
	g.trunk = netsim.NewPort(s, "gw/trunk", g.recvTrunk)
	g.outside = netsim.NewPort(s, "gw/outside", g.recvOutside)
	reg := s.Obs().Reg
	g.TrunkRx = reg.Counter("gw.trunk_rx_frames")
	g.OutsideRx = reg.Counter("gw.outside_rx_frames")
	g.Bridged = reg.Counter("gw.bridged_frames")
	g.GRETx = reg.Counter("gw.gre_tx_pkts")
	g.GRERx = reg.Counter("gw.gre_rx_pkts")
	g.ARPPendingDrops = reg.Counter("gw.arp_pending_drops")
	return g
}

// Trunk returns the inmate-network uplink port.
func (g *Gateway) Trunk() *netsim.Port { return g.trunk }

// Outside returns the upstream port.
func (g *Gateway) Outside() *netsim.Port { return g.outside }

// AddUpstreamTap registers a tap on the outside interface.
func (g *Gateway) AddUpstreamTap(t func(frame []byte)) {
	g.upstreamTaps = append(g.upstreamTaps, t)
}

// AddBridgeTap registers a tap seeing every unicast frame the gateway
// bridges between VLANs of the restricted broadcast domain — exactly the
// frames the gw.bridged_frames counter counts.
func (g *Gateway) AddBridgeTap(t func(frame []byte)) {
	g.bridgeTaps = append(g.bridgeTaps, t)
}

// AddRouter attaches a subfarm router running in the gateway's own
// simulation domain. VLAN ranges must not overlap with existing routers.
func (g *Gateway) AddRouter(cfg RouterConfig) *Router {
	return g.AddRouterIn(g.Sim, cfg)
}

// AddRouterIn attaches a subfarm router whose datapath runs in simulation
// domain s. When s differs from the gateway's own domain the router gets
// its own trunk port (wire it to the subfarm's switch) and a private
// uplink to the gateway core; the uplink latency is the coordinator's
// lookahead window. VLAN ranges must not overlap with existing routers.
func (g *Gateway) AddRouterIn(s *sim.Simulator, cfg RouterConfig) *Router {
	if !g.Sim.SameWorld(s) {
		panic("gateway: router simulator unrelated to the gateway's")
	}
	for _, r := range g.routers {
		// Two closed intervals [lo1,hi1], [lo2,hi2] overlap iff each starts
		// no later than the other ends. (The earlier endpoint-containment
		// check missed the case where the new range strictly contains an
		// existing one.)
		if cfg.VLANLo <= r.cfg.VLANHi && r.cfg.VLANLo <= cfg.VLANHi {
			panic(fmt.Sprintf("gateway: VLAN range %d-%d overlaps subfarm %s",
				cfg.VLANLo, cfg.VLANHi, r.cfg.Name))
		}
	}
	r := newRouter(g, s, cfg)
	g.routers = append(g.routers, r)
	return r
}

// routerForVLAN finds the subfarm handling a VLAN (inmate or service).
func (g *Gateway) routerForVLAN(vlan uint16) *Router {
	for _, r := range g.routers {
		if r.ownsVLAN(vlan) {
			return r
		}
	}
	return nil
}

// routerForGlobal finds the subfarm owning a global destination address
// (inmate pool, infrastructure pool, or tunnelled extra pool).
func (g *Gateway) routerForGlobal(dst netstack.Addr) *Router {
	for _, r := range g.routers {
		if r.cfg.GlobalPool.Contains(dst) {
			return r
		}
		if r.cfg.InfraPool.Bits != 0 && r.cfg.InfraPool.Contains(dst) {
			return r
		}
		for _, t := range r.cfg.GRETunnels {
			if t.ExtraPool.Contains(dst) {
				return r
			}
		}
	}
	return nil
}

// recvTrunk handles frames arriving from the inmate network on the
// gateway's shared trunk (single-domain topology; sharded routers own a
// private trunk and receive via Router.recvTrunkFrame).
func (g *Gateway) recvTrunk(frame []byte) {
	g.hand.hold(frame)
	defer g.hand.release()
	g.TrunkRx.Inc()
	p, err := g.rxTrunk.Parse(frame)
	if err != nil || p.Eth.VLAN == netstack.NoVLAN {
		return
	}
	r := g.routerForVLAN(p.Eth.VLAN)
	if r == nil {
		return // VLAN not assigned to any subfarm
	}
	r.receiveTrunk(p)
}

// recvOutside handles frames from the upstream network.
func (g *Gateway) recvOutside(frame []byte) {
	g.hand.hold(frame)
	defer g.hand.release()
	g.OutsideRx.Inc()
	for _, t := range g.upstreamTaps {
		t(frame)
	}
	p, err := g.rxOutside.Parse(frame)
	if err != nil || p.Eth.VLAN != netstack.NoVLAN {
		return
	}
	if p.ARP != nil {
		g.handleOutsideARP(p)
		return
	}
	if !p.Eth.Dst.IsBroadcast() && p.Eth.Dst != GatewayMAC {
		return
	}
	if p.IP == nil {
		return
	}
	r := g.routerForGlobal(p.IP.Dst)
	if r == nil {
		return
	}
	if r.uplinkCore != nil {
		// Sharded topology: hand the raw frame across the domain boundary
		// over the router's uplink. The buffer is ours to relinquish (the
		// receiving port owns it) and the router re-parses in its own
		// domain — zero copies, one extra parse.
		r.uplinkCore.SendOwned(g.hand.pass(frame))
		return
	}
	r.dispatchFromOutside(p)
}

// handleOutsideARP answers requests for any address the farm owns (proxy
// ARP over the global pools) and learns external neighbours.
func (g *Gateway) handleOutsideARP(p *netstack.Packet) {
	a := p.ARP
	if !a.SenderIP.IsZero() {
		g.outARP[a.SenderIP] = a.SenderHW
		g.flushOutside(a.SenderIP, a.SenderHW)
	}
	if a.Op != netstack.ARPRequest {
		return
	}
	if g.routerForGlobal(a.TargetIP) == nil {
		return
	}
	g.outside.SendOwned(g.hand.marshal(netstack.NewARPReply(netstack.NoVLAN, GatewayMAC, a.TargetIP, a)))
}

// emitOutside transmits an IP packet upstream, resolving the destination
// MAC first. Unresolvable destinations are dropped after the ARP timeout.
// GRE encapsulation for tunnelled source space happens router-side (see
// Router.sendOutside) so tunnel state stays in the router's domain; by the
// time a packet reaches here it is ready for the wire.
func (g *Gateway) emitOutside(p *netstack.Packet) {
	dst := p.IP.Dst
	p.Eth.Src = GatewayMAC
	p.Eth.VLAN = netstack.NoVLAN
	if mac, ok := g.outARP[dst]; ok {
		p.Eth.Dst = mac
		frame := g.hand.marshal(p)
		for _, t := range g.upstreamTaps {
			t(frame)
		}
		g.outside.SendOwned(frame)
		return
	}
	if !g.outPending.Park(dst, g.hand.marshal(p)) {
		g.ARPPendingDrops.Inc()
	}
}

// arpOutside broadcasts a request for dst upstream.
func (g *Gateway) arpOutside(dst netstack.Addr) {
	// Source the request from the first router's pool base + 1 so external
	// stacks can learn a sane sender. Any farm global works.
	var sender netstack.Addr
	if len(g.routers) > 0 {
		sender = g.routers[0].cfg.GlobalPool.Nth(1)
	}
	g.outside.SendOwned(g.hand.marshal(netstack.NewARPRequest(netstack.NoVLAN, GatewayMAC, sender, dst)))
}

// flushOutside transmits the frames parked for an outside neighbour that
// just resolved. Like flushVLANPending it leaves the wait's retry to run out:
// that firing is part of every recorded run's event count.
func (g *Gateway) flushOutside(addr netstack.Addr, mac netstack.MAC) {
	w := g.outPending.Learned(addr)
	if w == nil {
		return
	}
	for _, f := range w.Frames {
		// The queued frame is fully marshalled; only the destination MAC
		// was unknown when it was parked. Patch it in place.
		if !netstack.SetEthDst(f, mac) {
			continue
		}
		for _, t := range g.upstreamTaps {
			t(f)
		}
		g.outside.SendOwned(f)
	}
}

// hand is one simulation domain's gateway end of the frame list (DESIGN.md
// §3b), shared by the gateway core, the routers and the GRE peers in the
// domain. Every frame they build is marshalled into a buffer from frames.
// Every frame a receive entry is handed is held in rx until the entry
// returns, then released into frames, unless it left the gateway in the
// meantime: sent on, parked behind ARP, or handed across the uplink. So what
// the gateway receives, like what a host receives, is valid until the
// receive call returns.
type hand struct {
	frames *netsim.Frames
	rx     []byte
}

type handKey struct{}

// handOf returns s's hand, creating it with the domain's first gateway part.
func handOf(s *sim.Simulator) *hand {
	frames := netsim.FramesOf(s) // outside Local's own lock
	return s.Local(handKey{}, func() any { return &hand{frames: frames} }).(*hand)
}

// hold opens a receive entry's hold on frame.
func (h *hand) hold(frame []byte) { h.rx = frame }

// marshal returns p's frame for a send or a park that takes it: the buffer p
// was parsed from, patched in place, or else a build into a buffer from the
// list (netstack.Packet.MarshalTo).
func (h *hand) marshal(p *netstack.Packet) []byte {
	return h.pass(p.MarshalTo(h.frames.Take))
}

// pass notes that frame leaves the gateway, which ends the hold when it is
// the held frame, and returns it.
func (h *hand) pass(frame []byte) []byte {
	if len(frame) > 0 && len(h.rx) > 0 && &frame[0] == &h.rx[0] {
		h.rx = nil
	}
	return frame
}

// release ends a receive entry's hold: the held frame, unless it left, goes
// back on the list.
func (h *hand) release() {
	h.put(h.rx)
	h.rx = nil
}

// put gives a buffer back to the list, unless it is nil: the held frame at
// release, and a flow's replay buffer once nothing more can be sent from it.
func (h *hand) put(buf []byte) {
	if buf != nil {
		h.frames.Put(buf)
	}
}
