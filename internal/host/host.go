// Package host implements a simulated end host: a NIC, ARP, IPv4 with
// static or DHCP-assigned addressing, a full TCP state machine, and UDP
// sockets, all exposed through a callback-based socket API driven by the
// discrete-event simulator.
//
// Every machine in the farm except the gateway — inmates, containment
// servers, sink servers, infrastructure services, and external Internet
// hosts — is a Host. The gateway operates on raw frames instead (see
// internal/gateway) because it rewrites traffic in flight.
package host

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/sim"
)

// ipHeadroom is the room a transport layer leaves in front of its segment
// for the link and IP headers, which emitIP completes in the same buffer.
const ipHeadroom = netstack.EthHeaderLen + netstack.IPv4HeaderLen

// newIPFrame returns the buffer one originated datagram is serialised into,
// once: its length covers the (still blank) link and IP headers, and its
// capacity takes a transport segment of segLen bytes appended behind them
// plus the tail room an access port needs to tag the frame in place. It comes
// from the domain's frame list (netsim.Frames.Take). Whatever a recycled
// buffer still holds is written over before it is sent: the headers by
// emitIP, the segment by the transport's Marshal.
func (h *Host) newIPFrame(segLen int) []byte {
	return h.frames.Take(ipHeadroom + segLen + netstack.VLANTagLen)[:ipHeadroom]
}

// sendARP marshals an ARP packet into a buffer from the frame list and
// hands it to the NIC.
func (h *Host) sendARP(p *netstack.Packet) {
	h.nic.SendOwned(p.MarshalTo(h.frames.Take))
}

// pendingIP is a frame from newIPFrame, transport segment in place,
// waiting for its next hop's MAC address.
type pendingIP struct {
	proto uint8
	frame []byte
	dst   netstack.Addr
}

// Host is a simulated machine with one NIC.
type Host struct {
	Name string

	sim *sim.Simulator
	mac netstack.MAC
	nic *netsim.Port

	// IP configuration.
	addr    netstack.Addr
	bits    int
	gw      netstack.Addr
	dns     netstack.Addr
	ipID    uint16
	dropRx  bool // true while "powered off"
	rxHooks []func(*netstack.Packet)
	// rx is where receiveFrame parses every frame: a packet handed to the
	// protocol handlers or an rx hook is valid until receiveFrame returns,
	// which then releases the frame's buffer into frames, the domain's list.
	rx     netstack.ParseBuf
	frames *netsim.Frames

	// ARP. arpWaits parks frames behind each next hop being resolved;
	// arpDrops counts frames refused by a full wait queue, farm-wide.
	arpCache map[netstack.Addr]netstack.MAC
	arpWaits *netsim.Waits[netstack.Addr, pendingIP]
	arpDrops *obs.Counter

	// Transport. portConns counts the entries of conns per local port, so
	// allocEphemeral asks whether a port is free without ranging over conns.
	conns       map[connKey]*Conn
	portConns   map[uint16]int
	listeners   map[uint16]func(*Conn)
	anyListener func(*Conn) // wildcard TCP listener (catch-all sinks)
	// accepting holds the listener callback each passive open in SYN_RCVD
	// will be handed to once it is established, as it was when its SYN
	// arrived: an Unlisten during the handshake does not take it back.
	accepting  map[*Conn]func(*Conn)
	udpSocks   map[uint16]*UDPSock
	anyUDP     func(dstPort uint16, src netstack.Addr, srcPort uint16, data []byte)
	nextEphem  uint16
	rawUDPHook func(p *netstack.Packet) bool
	// turnOf is the conn whose callbacks run, if any, and turn the other
	// conns they wrote to or closed: each sends once they return (endTurn).
	turnOf *Conn
	turn   []*Conn
	// rtoDue holds, for each conn whose held ACK took its timer from a
	// retransmission timeout, when that timeout is due (Conn.hold).
	rtoDue map[*Conn]time.Duration
}

// connKey is 8 bytes with no padding, so the conns map hashes it in one
// call on its 64-bit fast path (DESIGN.md §3b).
type connKey struct {
	remoteIP              netstack.Addr
	localPort, remotePort uint16
}

// New creates a host with the given MAC address. The NIC is unconnected;
// wire it with netsim.Connect.
func New(s *sim.Simulator, name string, mac netstack.MAC) *Host {
	h := &Host{
		Name:      name,
		sim:       s,
		mac:       mac,
		arpCache:  make(map[netstack.Addr]netstack.MAC),
		arpDrops:  s.Obs().Reg.Counter("host.arp_pending_drops"),
		frames:    netsim.FramesOf(s),
		conns:     make(map[connKey]*Conn),
		portConns: make(map[uint16]int),
		listeners: make(map[uint16]func(*Conn)),
		udpSocks:  make(map[uint16]*UDPSock),
		nextEphem: 32768,
	}
	h.arpWaits = netsim.NewWaits[netstack.Addr, pendingIP](s, h.arpRequest)
	h.nic = netsim.NewPort(s, name+"/eth0", h.receiveFrame)
	return h
}

// NIC returns the host's network port for wiring into the topology.
func (h *Host) NIC() *netsim.Port { return h.nic }

// MAC returns the hardware address.
func (h *Host) MAC() netstack.MAC { return h.mac }

// Sim returns the simulator the host runs on.
func (h *Host) Sim() *sim.Simulator { return h.sim }

// Addr returns the configured IPv4 address (zero before configuration).
func (h *Host) Addr() netstack.Addr { return h.addr }

// DNS returns the configured resolver address.
func (h *Host) DNS() netstack.Addr { return h.dns }

// ConfigureStatic assigns an address, prefix length, and default gateway.
func (h *Host) ConfigureStatic(addr netstack.Addr, bits int, gw netstack.Addr) {
	h.addr, h.bits, h.gw = addr, bits, gw
}

// SetDNS records the resolver address (typically from DHCP).
func (h *Host) SetDNS(dns netstack.Addr) { h.dns = dns }

// AnnounceARP broadcasts a gratuitous ARP for the host's address — the
// boot-time chatter that lets switches and the gateway learn freshly
// configured inmates.
func (h *Host) AnnounceARP() {
	if h.addr.IsZero() {
		return
	}
	h.arpRequest(h.addr)
}

// AddRxHook registers an observer invoked for every parsed packet the host
// receives, before protocol processing. Used by instrumentation. The packet
// and the frame bytes it points into, payload included, are valid until the
// hook returns: the host then recycles the buffer for a later frame. A hook
// that keeps the packet calls Clone; one that keeps bytes copies them.
func (h *Host) AddRxHook(fn func(*netstack.Packet)) {
	h.rxHooks = append(h.rxHooks, fn)
}

// SetRawUDPHook installs a hook that sees UDP packets before socket
// dispatch; returning true consumes the packet. The DHCP client uses this
// to receive replies addressed to 255.255.255.255 before the host has an
// address. Like an rx hook's, the packet and its bytes are valid until the
// hook returns.
func (h *Host) SetRawUDPHook(fn func(p *netstack.Packet) bool) { h.rawUDPHook = fn }

// Alive reports whether the host is powered on (not Shutdown). The
// supervision tree's root node polls it for watch-only service hosts.
func (h *Host) Alive() bool { return !h.dropRx }

// Shutdown aborts all connections and stops processing frames, emulating
// power-off. The host can be Reset afterwards.
func (h *Host) Shutdown() {
	h.dropRx = true
	for _, c := range h.sortedConns() {
		c.destroy(fmt.Errorf("host %s shut down", h.Name))
	}
}

// sortedConns snapshots h.conns in connKey order so bulk teardown
// (Shutdown, Reset) destroys connections — and fires their OnClose
// cascades — in a deterministic sequence rather than map order.
func (h *Host) sortedConns() []*Conn {
	conns := make([]*Conn, 0, len(h.conns))
	for _, c := range h.conns {
		conns = append(conns, c)
	}
	slices.SortFunc(conns, func(a, b *Conn) int {
		return cmp.Or(cmp.Compare(a.key.localPort, b.key.localPort),
			cmp.Compare(a.key.remoteIP, b.key.remoteIP), cmp.Compare(a.key.remotePort, b.key.remotePort))
	})
	return conns
}

// Reset returns the host to an unconfigured, powered-on state with empty
// caches and no sockets: the networking half of reverting an inmate to a
// clean snapshot. It clears every receive binding, wildcard receivers
// included, and the DHCP client's raw UDP hook.
func (h *Host) Reset() {
	h.dropRx = false
	h.addr, h.bits, h.gw, h.dns = 0, 0, 0, 0
	h.arpCache = make(map[netstack.Addr]netstack.MAC)
	h.arpWaits.Reset()
	for _, c := range h.sortedConns() {
		c.destroy(fmt.Errorf("host %s reset", h.Name))
	}
	h.conns = make(map[connKey]*Conn)
	h.portConns = make(map[uint16]int)
	h.listeners = make(map[uint16]func(*Conn))
	h.udpSocks = make(map[uint16]*UDPSock)
	h.anyListener, h.anyUDP = nil, nil
	h.rawUDPHook = nil
	h.nextEphem = 32768
}

// PowerCycler returns the restart action for a statically addressed server
// host. Take it while the host is configured and its services are bound: it
// records the addressing and every receive binding Reset clears — the TCP
// listeners, the UDP sockets (the same *UDPSock values, so a service that
// holds one still holds a bound socket after the restart) and the wildcard
// receivers. The restart Resets the host, replays the addressing, puts the
// recorded bindings back and re-announces ARP, so a restarted server comes
// back with what it had bound, and its own state carries over.
func (h *Host) PowerCycler() func() {
	addr, bits, gw := h.addr, h.bits, h.gw
	listeners, udpSocks := maps.Clone(h.listeners), maps.Clone(h.udpSocks)
	anyListener, anyUDP := h.anyListener, h.anyUDP
	return func() {
		h.Reset()
		h.ConfigureStatic(addr, bits, gw)
		h.listeners, h.udpSocks = maps.Clone(listeners), maps.Clone(udpSocks)
		h.anyListener, h.anyUDP = anyListener, anyUDP
		h.AnnounceARP()
	}
}

// receiveFrame is the NIC's receive callback. The host is the frame's last
// owner: once everything it handed the frame to has returned, the buffer
// goes back on the domain's frame list, whichever way handling ended.
func (h *Host) receiveFrame(frame []byte) {
	h.handleFrame(frame)
	h.frames.Put(frame)
}

func (h *Host) handleFrame(frame []byte) {
	if h.dropRx {
		return
	}
	p, err := h.rx.Parse(frame)
	if err != nil {
		return
	}
	// Hosts sit on access ports: frames arrive untagged. Ignore stray tags.
	if !p.Eth.Dst.IsBroadcast() && p.Eth.Dst != h.mac {
		return
	}
	for _, fn := range h.rxHooks {
		fn(p)
	}
	switch {
	case p.ARP != nil:
		h.handleARP(p.ARP)
	case p.IP != nil:
		h.handleIP(p)
	}
}

func (h *Host) handleARP(a *netstack.ARP) {
	// Opportunistically learn the sender.
	if !a.SenderIP.IsZero() {
		h.arpCache[a.SenderIP] = a.SenderHW
		if w := h.arpWaits.Learned(a.SenderIP); w != nil {
			w.Stop()
			for _, q := range w.Frames {
				h.emitIP(a.SenderHW, q.dst, q.proto, q.frame)
			}
		}
	}
	if a.Op == netstack.ARPRequest && !h.addr.IsZero() && a.TargetIP == h.addr {
		h.sendARP(netstack.NewARPReply(netstack.NoVLAN, h.mac, h.addr, a))
	}
}

func (h *Host) handleIP(p *netstack.Packet) {
	if !p.IP.Dst.IsBroadcast() && !h.addr.IsZero() && p.IP.Dst != h.addr {
		return // not a router
	}
	switch {
	case p.TCP != nil:
		h.handleTCP(p)
	case p.UDP != nil:
		h.handleUDP(p)
	}
}

func (h *Host) handleUDP(p *netstack.Packet) {
	if h.rawUDPHook != nil && h.rawUDPHook(p) {
		return
	}
	if s, ok := h.udpSocks[p.UDP.DstPort]; ok && s.recv != nil {
		s.recv(p.IP.Src, p.UDP.SrcPort, p.Payload)
		return
	}
	// Wildcard receivers only see unicast: broadcast chatter (DHCP et al.)
	// is infrastructure noise, not contained flows.
	if h.anyUDP != nil && !p.IP.Dst.IsBroadcast() {
		h.anyUDP(p.UDP.DstPort, p.IP.Src, p.UDP.SrcPort, p.Payload)
	}
}

// ListenAny installs a wildcard TCP accept callback consulted when no
// port-specific listener exists. GQ's catch-all sink servers "accept
// arbitrary traffic without meaningfully responding to it" on every port.
func (h *Host) ListenAny(accept func(*Conn)) { h.anyListener = accept }

// ListenUDPAny installs a wildcard UDP receiver for ports without a bound
// socket. data is valid until recv returns; a receiver that keeps it copies.
func (h *Host) ListenUDPAny(recv func(dstPort uint16, src netstack.Addr, srcPort uint16, data []byte)) {
	h.anyUDP = recv
}

// sendIP routes and transmits an IP datagram, resolving the next hop via
// ARP and queueing while resolution is in flight. frame comes from
// newIPFrame with the transport segment appended; the host gives it up.
func (h *Host) sendIP(dst netstack.Addr, proto uint8, frame []byte) {
	if dst.IsBroadcast() {
		h.emitIP(netstack.BroadcastMAC, dst, proto, frame)
		return
	}
	nexthop := dst
	if h.bits > 0 && dst.Mask(h.bits) != h.addr.Mask(h.bits) {
		if h.gw.IsZero() {
			return // no route
		}
		nexthop = h.gw
	}
	if mac, ok := h.arpCache[nexthop]; ok {
		h.emitIP(mac, dst, proto, frame)
		return
	}
	if !h.arpWaits.Park(nexthop, pendingIP{proto: proto, frame: frame, dst: dst}) {
		h.arpDrops.Inc()
	}
}

// arpRequest broadcasts an ARP request for target.
func (h *Host) arpRequest(target netstack.Addr) {
	h.sendARP(netstack.NewARPRequest(netstack.NoVLAN, h.mac, h.addr, target))
}

// emitIP completes the link and IP headers in front of the transport
// segment frame already holds and hands the buffer to the NIC: the
// datagram is never copied between the transport layer and the wire.
func (h *Host) emitIP(dstMAC netstack.MAC, dst netstack.Addr, proto uint8, frame []byte) {
	h.ipID++
	eth := netstack.Ethernet{Dst: dstMAC, Src: h.mac, EtherType: netstack.EtherTypeIPv4}
	eth.Marshal(frame[:0])
	ip := netstack.IPv4{
		ID: h.ipID, TTL: netstack.DefaultTTL, Protocol: proto,
		Src: h.addr, Dst: dst,
	}
	ip.PutHeader(frame[netstack.EthHeaderLen:], len(frame)-ipHeadroom)
	h.nic.SendOwned(frame)
}

// ephemeralSpan is the size of the ephemeral port range [32768, 65536):
// allocEphemeral probes each port exactly once before declaring
// exhaustion, so it only panics when every ephemeral port is truly taken.
const ephemeralSpan = 65536 - 32768

func (h *Host) allocEphemeral() uint16 {
	for i := 0; i < ephemeralSpan; i++ {
		port := h.nextEphem
		h.nextEphem++
		if h.nextEphem < 32768 {
			h.nextEphem = 32768
		}
		if _, taken := h.udpSocks[port]; taken {
			continue
		}
		if _, taken := h.listeners[port]; taken {
			continue
		}
		if h.portConns[port] == 0 {
			return port
		}
	}
	panic("host: ephemeral port space exhausted")
}

// addConn enters c into the connection table.
func (h *Host) addConn(c *Conn) {
	h.conns[c.key] = c
	h.portConns[c.key.localPort]++
}

// dropConn takes c out of the connection table. A connection the table no
// longer holds (Reset replaced the table under it) leaves the entry and the
// count of whatever has its key now alone.
func (h *Host) dropConn(c *Conn) {
	if h.conns[c.key] != c {
		return
	}
	delete(h.conns, c.key)
	if n := h.portConns[c.key.localPort]; n > 1 {
		h.portConns[c.key.localPort] = n - 1
	} else {
		delete(h.portConns, c.key.localPort)
	}
}

// UDPSock is a bound UDP socket.
type UDPSock struct {
	host *Host
	port uint16
	recv func(src netstack.Addr, srcPort uint16, data []byte)
}

// ListenUDP binds a UDP port. Passing port 0 allocates an ephemeral port.
// The data recv is handed is valid until it returns; a receiver that keeps
// it copies.
func (h *Host) ListenUDP(port uint16, recv func(src netstack.Addr, srcPort uint16, data []byte)) (*UDPSock, error) {
	if port == 0 {
		port = h.allocEphemeral()
	}
	if _, taken := h.udpSocks[port]; taken {
		return nil, fmt.Errorf("host %s: UDP port %d in use", h.Name, port)
	}
	s := &UDPSock{host: h, port: port, recv: recv}
	h.udpSocks[port] = s
	return s, nil
}

// SendTo transmits a datagram.
func (s *UDPSock) SendTo(dst netstack.Addr, dstPort uint16, data []byte) {
	u := netstack.UDP{SrcPort: s.port, DstPort: dstPort}
	frame := u.Marshal(s.host.newIPFrame(netstack.UDPHeaderLen+len(data)), s.host.addr, dst, data)
	s.host.sendIP(dst, netstack.ProtoUDP, frame)
}

// Close unbinds the socket.
func (s *UDPSock) Close() { delete(s.host.udpSocks, s.port) }
