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
