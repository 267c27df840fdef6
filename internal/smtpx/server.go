package smtpx

import (
	"gq/internal/host"
)

// Bind attaches a new Engine to an accepted connection, the one place the
// two are wired (DESIGN.md §3b): stream bytes are fed in place, each reply
// gets its CRLF in a scratch buffer the session owns (Conn.Write copies),
// QUIT and a peer's FIN close the connection. The caller sets its hooks and
// calls Greet when the banner is ready — a banner-grabbing sink defers it.
func Bind(c *host.Conn, s Strictness) *Engine {
	var out []byte
	closeConn := c.Close
	e := NewEngine(s, func(line string) {
		out = append(append(out[:0], line...), '\r', '\n')
		c.Write(out)
	}, closeConn)
	c.OnData, c.OnPeerClose = e.Feed, closeConn
	return e
}

// Server binds a plain SMTP server to a host port: every connection is
// greeted immediately with a fixed banner. GQ's fidelity-adjustable sink
// (internal/sink) builds richer behaviour on the same Engine.
type Server struct {
	Banner     string
	Strictness Strictness
	// OnMessage receives completed envelopes (may be nil), each valid only
	// during the call, as for Engine.OnMessage.
	OnMessage func(env *Envelope) *Reply

	// Sessions counts accepted connections; Envelopes completed messages.
	Sessions  uint64
	Envelopes uint64
}

// Serve starts the server on h at port.
func (s *Server) Serve(h *host.Host, port uint16) error {
	return h.Listen(port, func(c *host.Conn) {
		s.Sessions++
		e := Bind(c, s.Strictness)
		e.OnMessage = func(env *Envelope) *Reply {
			s.Envelopes++
			if s.OnMessage != nil {
				return s.OnMessage(env)
			}
			return nil
		}
		e.Greet(s.Banner)
	})
}
