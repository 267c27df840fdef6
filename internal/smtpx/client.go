package smtpx

import (
	"bytes"
	"fmt"

	"gq/internal/host"
	"gq/internal/lineio"
	"gq/internal/netstack"
)

// AddrStyle is how a client formats MAIL FROM / RCPT TO stanzas. Real
// spambot engines vary here, which is what broke GQ's first strict sink.
type AddrStyle int

const (
	// StyleRFC is "MAIL FROM:<user@host>".
	StyleRFC AddrStyle = iota
	// StyleNoBrackets is "MAIL FROM:user@host".
	StyleNoBrackets
	// StyleSpaceColon is "MAIL FROM: <user@host>".
	StyleSpaceColon
	// StyleBare is "MAIL FROM user@host" (no colon, no brackets).
	StyleBare
)

// stanza returns what the style puts between a stanza's keyword and its
// address, and behind the address.
func (a AddrStyle) stanza() (sep, end string) {
	switch a {
	case StyleNoBrackets:
		return ":", ""
	case StyleSpaceColon:
		return ": <", ">"
	case StyleBare:
		return " ", ""
	default:
		return ":<", ">"
	}
}

// Message is an outbound mail as the client puts it on the wire.
type Message struct {
	From  []byte
	Rcpts [][]byte
	Data  []byte
}

// ClientConfig shapes a spam delivery session. The session asks Render for
// each message when it reaches it and keeps only that one, in a Message
// whose buffers it owns: nothing is built ahead of the wire.
type ClientConfig struct {
	Helo     string
	HeloVerb string // "HELO" (default) or "EHLO"
	// RepeatHelo >1 sends the greeting that many times, a protocol
	// violation some bot families exhibit.
	RepeatHelo int
	Style      AddrStyle
	// Messages is how many messages the session offers.
	Messages int
	// Render writes message i (0 ≤ i < Messages) into m, the session's one
	// Message, which still holds message i-1: it appends into m's buffers
	// from their start (m.From = append(m.From[:0], …)) and keeps nothing
	// of m after it returns.
	Render func(i int, m *Message)
	// OnBanner inspects the server greeting; returning false aborts the
	// session before HELO (Waledac-style banner sensitivity).
	OnBanner func(banner string) bool
	// OnDelivered fires per message with the end-of-DATA reply code, or
	// the code that refused the message before it. m is message i, valid
	// only during the call: a callback that keeps it copies it.
	OnDelivered func(i int, m *Message, code int)
	// OnDone fires once with the number of fully delivered messages; err
	// is non-nil for connection-level failures.
	OnDone func(delivered int, err error)
}

// clientSession drives the SMTP dialog over one connection.
type clientSession struct {
	cfg       ClientConfig
	conn      *host.Conn
	in        lineio.Reader
	out       []byte // the line being written; one buffer for the whole session
	stage     int    // 0 banner, 1 helo, 2 mail, 3 rcpt, 4 data-go, 5 data-sent, 6 quit
	heloLeft  int
	msg       Message // message msgIdx, rendered when the session reached it
	msgIdx    int
	rcptIdx   int
	delivered int
	done      bool
}

// Send opens a connection to dst:port and runs the configured session.
func Send(h *host.Host, dst netstack.Addr, port uint16, cfg ClientConfig) {
	if cfg.HeloVerb == "" {
		cfg.HeloVerb = "HELO"
	}
	if cfg.RepeatHelo < 1 {
		cfg.RepeatHelo = 1
	}
	s := &clientSession{cfg: cfg, heloLeft: cfg.RepeatHelo, in: lineio.Reader{Max: maxLine}}
	s.conn = h.Dial(dst, port)
	s.conn.OnData = func(data []byte) { s.in.Feed(data, s.handleLine, s.lineTooLong) } // read in place
	s.conn.OnClose = func(err error) { s.finish(err) }
	s.conn.OnPeerClose = func() { s.conn.Close() }
}

func (s *clientSession) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if s.cfg.OnDone != nil {
		if err == nil && s.delivered < s.cfg.Messages && s.stage != 6 {
			err = fmt.Errorf("smtpx: session ended at stage %d", s.stage)
		}
		s.cfg.OnDone(s.delivered, err)
	}
}

// flush ends what s.out holds with CRLF and sends it in one Conn.Write,
// which copies it (s.out is reused) and cuts it into segments at MSS.
func (s *clientSession) flush() {
	s.out = append(s.out, '\r', '\n')
	s.conn.Write(s.out)
	s.out = s.out[:0]
}

func (s *clientSession) writeLine(parts ...string) {
	for _, p := range parts {
		s.out = append(s.out, p...)
	}
	s.flush()
}

func (s *clientSession) lineTooLong() {
	s.conn.Close()
	s.finish(fmt.Errorf("smtpx: reply line too long"))
}

func replyCode(line []byte) int {
	if len(line) < 3 {
		return 0
	}
	code := 0
	for _, c := range line[:3] {
		if c < '0' || c > '9' {
			return 0
		}
		code = code*10 + int(c-'0')
	}
	return code
}

// handleLine takes one reply line and sends what the dialog says next.
func (s *clientSession) handleLine(line []byte) {
	if s.done {
		return
	}
	line = bytes.TrimRight(line, "\r")
	code := replyCode(line)
	switch s.stage {
	case 0: // banner
		if s.cfg.OnBanner != nil && !s.cfg.OnBanner(string(line)) {
			s.conn.Close()
			s.finish(fmt.Errorf("smtpx: banner rejected by client"))
			return
		}
		if code != 220 {
			s.quit()
			return
		}
		for i := 0; i < s.heloLeft; i++ {
			s.writeLine(s.cfg.HeloVerb, " ", s.cfg.Helo)
		}
		s.stage = 1
	case 1: // HELO replies (possibly several)
		s.heloLeft--
		if code >= 400 {
			s.quit()
			return
		}
		if s.heloLeft <= 0 {
			s.nextMessage()
		}
	case 2: // MAIL FROM reply
		if code >= 400 {
			s.skipMessage(code)
			return
		}
		s.rcptIdx = 0
		s.sendRcpt()
	case 3: // RCPT TO reply
		if code >= 400 {
			// Try remaining recipients; if none accepted, skip message.
			s.rcptIdx++
			if s.rcptIdx < len(s.msg.Rcpts) {
				s.sendRcpt()
				return
			}
			s.skipMessage(code)
			return
		}
		s.rcptIdx++
		if s.rcptIdx < len(s.msg.Rcpts) {
			s.sendRcpt()
			return
		}
		s.writeLine("DATA")
		s.stage = 4
	case 4: // DATA go-ahead
		if code != 354 {
			s.skipMessage(code)
			return
		}
		s.sendBody()
		s.stage = 5
	case 5: // end-of-data reply
		if code < 400 {
			s.delivered++
		}
		s.skipMessage(code)
	case 6: // QUIT reply
		s.conn.Close()
		s.finish(nil)
	}
}

// nextMessage renders message msgIdx and opens its transaction, or quits
// when the session has offered all of them.
func (s *clientSession) nextMessage() {
	if s.msgIdx >= s.cfg.Messages {
		s.quit()
		return
	}
	s.cfg.Render(s.msgIdx, &s.msg)
	s.writeAddr("MAIL FROM", s.msg.From)
	s.stage = 2
}

// skipMessage reports the current message's last reply code and moves on
// to the next one.
func (s *clientSession) skipMessage(code int) {
	if s.cfg.OnDelivered != nil {
		s.cfg.OnDelivered(s.msgIdx, &s.msg, code)
		if poisonMessages {
			poisonMessage(&s.msg)
		}
	}
	s.msgIdx++
	s.nextMessage()
}

func poisonMessage(m *Message) {
	poisonBytes(m.From)
	for _, r := range m.Rcpts {
		poisonBytes(r)
	}
	poisonBytes(m.Data)
}

func (s *clientSession) sendRcpt() {
	s.writeAddr("RCPT TO", s.msg.Rcpts[s.rcptIdx])
	s.stage = 3
}

// writeAddr sends a MAIL FROM or RCPT TO stanza in the session's style.
func (s *clientSession) writeAddr(keyword string, addr []byte) {
	sep, end := s.cfg.Style.stanza()
	s.out = append(append(append(append(s.out, keyword...), sep...), addr...), end...)
	s.flush()
}

// sendBody sends the message's lines, dot-stuffed, and the final "." in
// one write: the body leaves in as few segments as MSS allows.
func (s *clientSession) sendBody() {
	for rest, more := s.msg.Data, true; more; {
		var line []byte
		line, rest, more = bytes.Cut(rest, []byte{'\n'})
		if len(line) > 0 && line[0] == '.' {
			s.out = append(s.out, '.') // dot-stuffing
		}
		s.out = append(append(s.out, line...), '\r', '\n')
	}
	s.writeLine(".")
}

func (s *clientSession) quit() {
	s.writeLine("QUIT")
	s.stage = 6
}
