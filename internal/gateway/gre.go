package gateway

import (
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// GRETunnel grafts routable address space provided by a cooperating
// network onto a subfarm (§7.2): traffic for ExtraPool arrives at the peer
// network and is tunnelled to the gateway over GRE; the gateway tunnels
// return traffic sourced from ExtraPool back to the peer, which emits it
// natively.
type GRETunnel struct {
	// LocalAddr is the gateway-side tunnel endpoint (a routable address
	// from the farm's own space).
	LocalAddr netstack.Addr
	// PeerAddr is the cooperating router's endpoint.
	PeerAddr netstack.Addr
	// ExtraPool is the address space the peer contributes.
	ExtraPool netstack.Prefix
	// PoolStart reserves the first host indices.
	PoolStart int
}

// attachTunnels registers tunnel pools with NAT (called from newRouter).
func (r *Router) attachTunnels() {
	for _, t := range r.cfg.GRETunnels {
		r.nat.AddPool(t.ExtraPool, t.PoolStart)
	}
}

// tunnelForSrc finds the tunnel whose pool contains src (nil if none).
func (r *Router) tunnelForSrc(src netstack.Addr) *GRETunnel {
	for i := range r.cfg.GRETunnels {
		if r.cfg.GRETunnels[i].ExtraPool.Contains(src) {
			return &r.cfg.GRETunnels[i]
		}
	}
	return nil
}

// tunnelForEndpoint finds the tunnel terminated at local (nil if none).
func (r *Router) tunnelForEndpoint(local netstack.Addr) *GRETunnel {
	for i := range r.cfg.GRETunnels {
		if r.cfg.GRETunnels[i].LocalAddr == local {
			return &r.cfg.GRETunnels[i]
		}
	}
	return nil
}

// greEncapAndSend wraps an IP packet for its tunnel and transmits the
// outer packet upstream. Runs in the router's domain so tunnel state
// (greUp, the journal scope) stays domain-local.
func (r *Router) greEncapAndSend(t *GRETunnel, p *netstack.Packet) {
	inner := netstack.MarshalIPPacket(p)
	outer := &netstack.Packet{
		Eth: netstack.Ethernet{EtherType: netstack.EtherTypeIPv4},
		IP: &netstack.IPv4{
			TTL: netstack.DefaultTTL, Protocol: netstack.ProtoGRE,
			Src: t.LocalAddr, Dst: t.PeerAddr,
		},
		Payload: netstack.GREEncap(inner),
	}
	r.gw.GRETx.Inc()
	r.noteTunnelUp(t)
	r.emitOutside(outer)
}

// noteTunnelUp journals the first packet through a tunnel endpoint. A
// tunnel lives for the whole experiment, so nothing journals its end.
func (r *Router) noteTunnelUp(t *GRETunnel) {
	if r.greUp[t.LocalAddr] {
		return
	}
	r.greUp[t.LocalAddr] = true
	r.sc.Emit(obs.Event{
		Type:  obs.EvGRETunnelUp,
		SrcIP: uint32(t.LocalAddr), DstIP: uint32(t.PeerAddr),
	})
}

// handleGRE decapsulates a tunnel packet arriving at a local endpoint and
// re-injects the inner packet into the subfarm's inbound path. Runs in
// the router's domain.
func (r *Router) handleGRE(p *netstack.Packet) {
	inner, err := netstack.GREDecap(p.Payload)
	if err != nil {
		return
	}
	ip, err := netstack.ParseIPPacket(inner)
	if err != nil {
		return
	}
	r.gw.GRERx.Inc()
	if t := r.tunnelForEndpoint(p.IP.Dst); t != nil {
		r.noteTunnelUp(t)
	}
	if r.cfg.InfraPool.Bits != 0 && r.cfg.InfraPool.Contains(ip.IP.Dst) {
		r.handleInfraInbound(ip)
		return
	}
	r.handleFromOutside(ip)
}

// GREPeer simulates the cooperating network's router: it owns PeerAddr and
// proxy-ARPs the contributed pool on the outside network, tunnelling
// everything for the pool to the gateway and emitting decapsulated return
// traffic natively.
type GREPeer struct {
	Tunnel GRETunnel

	sim  *sim.Simulator
	port *netsim.Port
	hand *hand // the domain's frame list and received frame

	// Outside-segment ARP, like the gateway's: frames parked behind an
	// unresolved neighbour are marshalled and complete but for the
	// destination MAC.
	arp     map[netstack.Addr]netstack.MAC
	pending *netsim.Waits[netstack.Addr, []byte]
	mac     netstack.MAC

	// TunnelledIn / TunnelledOut count packets each way; ARPPendingDrops
	// frames refused by a full ARP-pending queue.
	TunnelledIn, TunnelledOut, ARPPendingDrops uint64
}

// NewGREPeer creates the peer router; connect Port() to the outside
// switch.
func NewGREPeer(s *sim.Simulator, t GRETunnel) *GREPeer {
	p := &GREPeer{
		Tunnel: t, sim: s, hand: handOf(s),
		arp: make(map[netstack.Addr]netstack.MAC),
		mac: netstack.MAC{0x02, 0x47, 0x52, 0x45, 0x00, 0x01},
	}
	p.pending = netsim.NewWaits[netstack.Addr, []byte](s, p.arpRequest)
	p.port = netsim.NewPort(s, "grepeer", p.recv)
	return p
}

// Port returns the peer's network attachment.
func (p *GREPeer) Port() *netsim.Port { return p.port }

func (p *GREPeer) recv(frame []byte) {
	p.hand.hold(frame)
	defer p.hand.release()
	pkt, err := netstack.ParseFrame(frame)
	if err != nil {
		return
	}
	if pkt.ARP != nil {
		p.handleARP(pkt)
		return
	}
	if pkt.IP == nil {
		return
	}
	switch {
	case pkt.IP.Dst == p.Tunnel.PeerAddr && pkt.IP.Protocol == netstack.ProtoGRE:
		// From the gateway: decap and emit natively.
		inner, err := netstack.GREDecap(pkt.Payload)
		if err != nil {
			return
		}
		ip, err := netstack.ParseIPPacket(inner)
		if err != nil {
			return
		}
		p.TunnelledOut++
		p.emit(ip)
	case p.Tunnel.ExtraPool.Contains(pkt.IP.Dst):
		// Native traffic for the contributed pool: tunnel to the gateway.
		p.TunnelledIn++
		outer := &netstack.Packet{
			Eth: netstack.Ethernet{Src: p.mac, EtherType: netstack.EtherTypeIPv4},
			IP: &netstack.IPv4{
				TTL: netstack.DefaultTTL, Protocol: netstack.ProtoGRE,
				Src: p.Tunnel.PeerAddr, Dst: p.Tunnel.LocalAddr,
			},
			Payload: netstack.GREEncap(netstack.MarshalIPPacket(pkt)),
		}
		p.send(outer)
	}
}

func (p *GREPeer) handleARP(pkt *netstack.Packet) {
	a := pkt.ARP
	if !a.SenderIP.IsZero() {
		p.arp[a.SenderIP] = a.SenderHW
		if w := p.pending.Learned(a.SenderIP); w != nil {
			w.Stop()
			for _, f := range w.Frames {
				if netstack.SetEthDst(f, a.SenderHW) {
					p.port.SendOwned(f)
				}
			}
		}
	}
	if a.Op != netstack.ARPRequest {
		return
	}
	// Proxy-ARP the contributed pool plus the peer's own endpoint.
	if a.TargetIP != p.Tunnel.PeerAddr && !p.Tunnel.ExtraPool.Contains(a.TargetIP) {
		return
	}
	p.port.SendOwned(p.hand.marshal(netstack.NewARPReply(netstack.NoVLAN, p.mac, a.TargetIP, a)))
}

// emit transmits an IP packet natively on the outside segment, resolving
// the destination via ARP.
func (p *GREPeer) emit(ip *netstack.Packet) {
	ip.Eth = netstack.Ethernet{Src: p.mac, EtherType: netstack.EtherTypeIPv4}
	p.sendTo(ip, ip.IP.Dst)
}

// send transmits toward an IP destination (used for tunnel upstream too).
func (p *GREPeer) send(pkt *netstack.Packet) { p.sendTo(pkt, pkt.IP.Dst) }

func (p *GREPeer) sendTo(pkt *netstack.Packet, dst netstack.Addr) {
	if mac, ok := p.arp[dst]; ok {
		pkt.Eth.Dst = mac
		p.port.SendOwned(p.hand.marshal(pkt))
		return
	}
	if !p.pending.Park(dst, p.hand.marshal(pkt)) {
		p.ARPPendingDrops++
	}
}

// arpRequest broadcasts a request for dst on the outside segment.
func (p *GREPeer) arpRequest(dst netstack.Addr) {
	p.port.SendOwned(p.hand.marshal(netstack.NewARPRequest(netstack.NoVLAN, p.mac, p.Tunnel.PeerAddr, dst)))
}
