package dnsx

import (
	"strings"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
)

// Server is the farm's recursive-resolver stand-in. It answers from a
// static zone map; unknown names get NXDOMAIN. Wildcards of the form
// "*.example.com" match any subdomain depth.
type Server struct {
	bound *host.UDPSock
	zones map[string]netstack.Addr
}

// NewServer starts a DNS server on h with the given zone data.
func NewServer(h *host.Host, zones map[string]netstack.Addr) (*Server, error) {
	s := &Server{zones: make(map[string]netstack.Addr, len(zones))}
	for name, addr := range zones {
		s.zones[strings.ToLower(name)] = addr
	}
	sock, err := h.ListenUDP(Port, s.handle)
	if err != nil {
		return nil, err
	}
	s.bound = sock
	return s, nil
}

func (s *Server) lookup(name string) (netstack.Addr, bool) {
	if a, ok := s.zones[name]; ok {
		return a, true
	}
	// Wildcard match against successive parent domains.
	rest := name
	for {
		i := strings.IndexByte(rest, '.')
		if i < 0 {
			return 0, false
		}
		rest = rest[i+1:]
		if a, ok := s.zones["*."+rest]; ok {
			return a, true
		}
	}
}

func (s *Server) handle(src netstack.Addr, sport uint16, data []byte) {
	q, err := Unmarshal(data)
	if err != nil || q.Response {
		return
	}
	resp := &Message{ID: q.ID, Response: true, Name: q.Name, TTL: 300}
	if addr, ok := s.lookup(q.Name); ok {
		resp.Answers = []netstack.Addr{addr}
	} else {
		resp.Rcode = RcodeNXDomain
	}
	s.bound.SendTo(src, sport, resp.Marshal())
}

// resolveTimeout bounds how long a Resolve waits for an answer.
const resolveTimeout = 5 * time.Second

// Resolve sends an A query from h to server and invokes done exactly once
// with the result; ok is false on NXDOMAIN or timeout.
func Resolve(h *host.Host, server netstack.Addr, name string, done func(addrs []netstack.Addr, ok bool)) {
	id := uint16(h.Sim().Rand().Uint32())
	q := &Message{ID: id, Name: strings.ToLower(name)}

	var sock *host.UDPSock
	answered := false
	finish := func(addrs []netstack.Addr, ok bool) {
		if answered {
			return
		}
		answered = true
		sock.Close()
		done(addrs, ok)
	}
	var err error
	sock, err = h.ListenUDP(0, func(src netstack.Addr, sport uint16, data []byte) {
		if src != server || sport != Port {
			return
		}
		m, err := Unmarshal(data)
		if err != nil || !m.Response || m.ID != id {
			return
		}
		finish(m.Answers, m.Rcode == RcodeNoError && len(m.Answers) > 0)
	})
	if err != nil {
		done(nil, false)
		return
	}
	h.Sim().Schedule(resolveTimeout, func() { finish(nil, false) })
	sock.SendTo(server, Port, q.Marshal())
}
