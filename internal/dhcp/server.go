package dhcp

import (
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
)

// leaseTime is the lease every ACK and OFFER grants. A lease is never
// reclaimed on expiry: an inmate keeps its address until ReleaseMAC or its
// own RELEASE frees it.
const leaseTime = time.Hour

// ServerConfig configures the pool the server hands out.
type ServerConfig struct {
	Pool       netstack.Prefix // addresses drawn from here
	PoolStart  int             // first host index offered (skip infra addrs)
	Router     netstack.Addr
	DNS        netstack.Addr
	SubnetBits int
}

// Server is the inmate network's DHCP service. It is a normal Host
// application bound to UDP port 67.
type Server struct {
	h      *host.Host
	cfg    ServerConfig
	sock   *host.UDPSock
	leases map[netstack.MAC]netstack.Addr // each client's bound address
	inUse  map[netstack.Addr]bool
	next   int
}

// NewServer starts a DHCP server on h.
func NewServer(h *host.Host, cfg ServerConfig) (*Server, error) {
	s := &Server{
		h: h, cfg: cfg,
		leases: make(map[netstack.MAC]netstack.Addr),
		inUse:  make(map[netstack.Addr]bool),
		next:   cfg.PoolStart,
	}
	sock, err := h.ListenUDP(ServerPort, s.handle)
	if err != nil {
		return nil, err
	}
	s.sock = sock
	return s, nil
}

// ReleaseMAC frees a client's binding, e.g. when an inmate is expired.
func (s *Server) ReleaseMAC(mac netstack.MAC) {
	if a, ok := s.leases[mac]; ok {
		delete(s.inUse, a)
		delete(s.leases, mac)
	}
}

func (s *Server) handle(src netstack.Addr, srcPort uint16, data []byte) {
	m, err := Unmarshal(data)
	if err != nil || m.Op != OpRequest {
		return
	}
	switch m.Type() {
	case Discover:
		lease := s.leaseFor(m.CHAddr)
		if lease == 0 {
			return // pool exhausted
		}
		s.reply(m, Offer, lease)
	case Request:
		want, _ := m.AddrOption(OptRequestedIP)
		lease := s.leaseFor(m.CHAddr)
		if lease == 0 || (want != 0 && want != lease) {
			s.nak(m)
			return
		}
		s.reply(m, Ack, lease)
	case Release:
		s.ReleaseMAC(m.CHAddr)
	}
}

// leaseFor returns mac's address, binding a free one from the pool if it
// has none; 0 if the pool is exhausted.
func (s *Server) leaseFor(mac netstack.MAC) netstack.Addr {
	if a, ok := s.leases[mac]; ok {
		return a
	}
	for i := 0; i < s.cfg.Pool.Size(); i++ {
		idx := s.next + i
		if idx >= s.cfg.Pool.Size()-1 { // avoid broadcast addr
			idx = s.cfg.PoolStart + (idx-s.cfg.PoolStart)%(s.cfg.Pool.Size()-1-s.cfg.PoolStart)
		}
		a := s.cfg.Pool.Nth(idx)
		if !s.inUse[a] {
			s.next = idx + 1
			s.leases[mac] = a
			s.inUse[a] = true
			return a
		}
	}
	return 0
}

func (s *Server) reply(req *Message, typ uint8, yiaddr netstack.Addr) {
	m := &Message{
		Op: OpReply, XID: req.XID, Flags: req.Flags,
		YIAddr: yiaddr, SIAddr: s.h.Addr(), CHAddr: req.CHAddr,
	}
	m.SetType(typ)
	m.SetAddrOption(OptServerID, s.h.Addr())
	m.SetAddrOption(OptSubnetMask, maskAddr(s.cfg.SubnetBits))
	if s.cfg.Router != 0 {
		m.SetAddrOption(OptRouter, s.cfg.Router)
	}
	if s.cfg.DNS != 0 {
		m.SetAddrOption(OptDNS, s.cfg.DNS)
	}
	lease := make([]byte, 4)
	putU32(lease, uint32(leaseTime/time.Second))
	m.Options[OptLeaseTime] = lease
	s.send(req, m)
}

func (s *Server) nak(req *Message) {
	m := &Message{Op: OpReply, XID: req.XID, Flags: req.Flags, CHAddr: req.CHAddr}
	m.SetType(Nak)
	m.SetAddrOption(OptServerID, s.h.Addr())
	s.send(req, m)
}

func (s *Server) send(req, m *Message) {
	// Clients without an address ask for broadcast replies.
	dst := netstack.Addr(0xffffffff)
	if req.Flags&BroadcastFlag == 0 && req.CIAddr != 0 {
		dst = req.CIAddr
	}
	s.sock.SendTo(dst, ClientPort, m.Marshal())
}

func maskAddr(bits int) netstack.Addr {
	return netstack.Addr(0xffffffff).Mask(bits)
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
