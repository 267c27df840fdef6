// Package smtpx implements SMTP engines for the farm: a server-side
// protocol state machine with configurable strictness, and a client used by
// the simulated spambots.
//
// Strictness matters operationally (§7.1 "protocol violations"): GQ's
// original sink "followed the SMTP specification too closely, preventing
// the protocol state machine from ever reaching the DATA stage" for some
// bot families. The discrepancies were mundane — repeated HELO/EHLO
// greetings, and the format of addresses in MAIL FROM and RCPT TO stanzas
// (with or without colons, with or without angle brackets). Both engines
// here model exactly those variations, and both read the bytes they are
// handed in place, copying only what a session keeps (DESIGN.md §3b).
//
// A message lives only on the wire unless its receiver keeps a copy: the
// server engine collects every message of a session into one Envelope it
// reuses, and the client renders every message into one Message it reuses.
// Each is valid only during the callback it is handed to (OnMessage,
// OnDelivered), like the bytes host.Conn hands OnData; a callback that keeps
// one copies it. In test binaries both are overwritten with
// netsim.PoisonByte once the callback returns, so a keeper that did not copy
// reads garbage.
package smtpx

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"gq/internal/netsim"
)

// Strictness selects how closely the server engine follows RFC 821.
type Strictness int

const (
	// Strict rejects repeated greetings and malformed address stanzas.
	Strict Strictness = iota
	// Lenient tolerates the violations real spambots emit.
	Lenient
)

// Envelope is a message collected by the server engine. The engine hands
// OnMessage its one Envelope, reused for each message of the session: it is
// valid only during the call, and a callback that keeps it copies the
// struct, Rcpts and Data (the strings are immutable and may be shared).
type Envelope struct {
	Helo  string
	From  string
	Rcpts []string
	Data  []byte
}

// Reply is an SMTP response line.
type Reply struct {
	Code int
	Text string
}

func (r Reply) String() string { return strconv.Itoa(r.Code) + " " + r.Text }

// What an inmate can make a session hold (DESIGN.md §5): a line of at most
// maxLine octets before its LF (RFC 5321 §4.5.3.1.6), a body of maxMessage.
const (
	maxLine    = 1000
	maxMessage = 1 << 20
)

// lineReader cuts a byte stream into lines where the bytes lie: only the
// start of a line split across segments is copied, into buf, which never
// holds more than maxLine octets. A longer line is reported once, as soon
// as its excess is seen, and discarded up to its LF.
type lineReader struct {
	buf      []byte
	skipping bool
}

// lineHandler is a session on the receiving end of a lineReader.
type lineHandler interface {
	handleLine(line []byte) // without its LF and trailing CRs; valid for the call
	lineTooLong()
}

func (r *lineReader) feed(data []byte, h lineHandler) {
	for len(data) > 0 {
		line, rest, found := bytes.Cut(data, []byte{'\n'})
		switch {
		case r.skipping:
		case len(r.buf)+len(line) > maxLine:
			r.buf, r.skipping = r.buf[:0], true
			h.lineTooLong()
		case !found:
			if r.buf == nil {
				r.buf = make([]byte, 0, maxLine)
			}
			r.buf = append(r.buf, line...)
		default:
			if len(r.buf) > 0 {
				line, r.buf = append(r.buf, line...), r.buf[:0]
			}
			h.handleLine(bytes.TrimRight(line, "\r"))
		}
		if !found {
			return
		}
		data, r.skipping = rest, false
	}
}

// Engine is a server-side SMTP session state machine. The caller feeds it
// raw stream bytes; it emits reply lines through the write callback. The
// greeting banner is sent explicitly via Greet, which lets a sink defer it
// (e.g. while grabbing the real target's banner, §7.1 "satisfying
// fidelity").
type Engine struct {
	// Hooks; all optional. The reply-returning hooks may override the
	// default acceptance codes, which GQ's exploratory containment uses to
	// expose specimens to specific SMTP error conditions.
	OnHelo func(verb, arg string)
	OnMail func(addr string) *Reply
	OnRcpt func(addr string) *Reply
	// OnMessage receives each completed envelope; its reply answers the
	// end-of-DATA dot. env is the engine's one Envelope, valid only during
	// the call: a callback that keeps it copies it.
	OnMessage func(env *Envelope) *Reply

	strictness Strictness
	write      func(line string)
	closeConn  func()

	state int // 0 start, 1 greeted, 2 mail, 3 rcpt, 4 data
	// env is the message being collected: the session's greeting, and the
	// sender, recipients and body of the current transaction. Its Rcpts and
	// Data keep their storage from one message to the next.
	env      Envelope
	oversize bool // this DATA stage outgrew maxMessage; its body is dropped
	in       lineReader
	greeted  bool

	// Counters for reports.
	Envelopes     int
	HeloCount     int
	SyntaxErrors  int
	SequenceViols int
}

const (
	stStart = iota
	stGreeted
	stMail
	stRcpt
	stData
)

// NewEngine creates a session engine. write emits a reply line (without
// CRLF); closeConn is invoked after QUIT's reply.
func NewEngine(s Strictness, write func(line string), closeConn func()) *Engine {
	return &Engine{strictness: s, write: write, closeConn: closeConn}
}

// Greet sends the service banner and opens the session.
func (e *Engine) Greet(banner string) {
	if e.greeted {
		return
	}
	e.greeted = true
	e.write(banner)
}

// answer writes a hook's reply, or the constant def when the hook gave
// none, and reports whether the command was accepted.
func (e *Engine) answer(o *Reply, def string) bool {
	if o == nil {
		e.write(def)
		return true
	}
	e.write(o.String())
	return o.Code < 400
}

// Feed consumes stream bytes, processing complete lines. data is read in
// place and not retained.
func (e *Engine) Feed(data []byte) { e.in.feed(data, e) }

func (e *Engine) lineTooLong() {
	e.SyntaxErrors++
	e.write("500 line too long")
}

// dataLine takes one line of a DATA stage.
func (e *Engine) dataLine(line []byte) {
	if len(line) == 1 && line[0] == '.' {
		if e.oversize {
			e.write("552 message size exceeds limit")
		} else {
			e.Envelopes++
			var o *Reply
			if e.OnMessage != nil {
				o = e.OnMessage(&e.env)
				if poisonMessages {
					poisonEnvelope(&e.env)
				}
			}
			e.answer(o, "250 OK queued")
		}
		e.state = stGreeted
		e.reset()
		return
	}
	// Dot-unstuffing per RFC 821 §4.5.2.
	if len(line) > 1 && line[0] == '.' && line[1] == '.' {
		line = line[1:]
	}
	if e.oversize || len(e.env.Data)+len(line)+1 > maxMessage {
		e.env.Data, e.oversize = nil, true
		return
	}
	e.env.Data = append(append(e.env.Data, line...), '\n')
}

// reset empties the transaction — sender, recipients, body — keeping the
// storage of the last two for the next message.
func (e *Engine) reset() {
	e.env.From, e.env.Rcpts, e.env.Data, e.oversize = "", e.env.Rcpts[:0], e.env.Data[:0], false
}

// poisonMessages makes test binaries overwrite the Envelope OnMessage was
// handed, and the Message OnDelivered was handed, once the call returns, so
// a callback that kept one instead of copying it reads PoisonByte.
var poisonMessages = testing.Testing()

// poisonString stands in for a string field of a released Envelope.
var poisonString = strings.Repeat(string([]byte{netsim.PoisonByte}), 8)

func poisonEnvelope(env *Envelope) {
	env.From = poisonString
	for i := range env.Rcpts {
		env.Rcpts[i] = poisonString
	}
	poisonBytes(env.Data)
}

// poisonBytes overwrites b up to its capacity with netsim.PoisonByte.
func poisonBytes(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = netsim.PoisonByte
	}
}

func (e *Engine) handleLine(line []byte) {
	if e.state == stData {
		e.dataLine(line)
		return
	}
	verb, arg := splitVerb(line)
	switch verb {
	case "HELO", "EHLO":
		e.HeloCount++
		if e.state != stStart && e.strictness == Strict {
			e.SequenceViols++
			e.write("503 duplicate HELO/EHLO")
			return
		}
		e.env.Helo = string(arg)
		e.state = stGreeted
		if e.OnHelo != nil {
			e.OnHelo(verb, e.env.Helo)
		}
		e.write("250 Hello " + e.env.Helo)

	case "MAIL":
		if e.state == stStart && e.strictness == Strict {
			e.SequenceViols++
			e.write("503 send HELO first")
			return
		}
		addr, ok := parseAddrStanza(arg, "FROM", e.strictness)
		if !ok {
			e.SyntaxErrors++
			e.write("501 syntax error in MAIL FROM")
			return
		}
		e.env.From, e.env.Rcpts, e.state = string(addr), e.env.Rcpts[:0], stMail
		var o *Reply
		if e.OnMail != nil {
			o = e.OnMail(e.env.From)
		}
		if !e.answer(o, "250 sender OK") {
			e.state = stGreeted
		}

	case "RCPT":
		if e.state != stMail && e.state != stRcpt {
			e.SequenceViols++
			e.write("503 need MAIL first")
			return
		}
		addr, ok := parseAddrStanza(arg, "TO", e.strictness)
		if !ok {
			e.SyntaxErrors++
			e.write("501 syntax error in RCPT TO")
			return
		}
		rcpt := string(addr)
		var o *Reply
		if e.OnRcpt != nil {
			o = e.OnRcpt(rcpt)
		}
		if o == nil || o.Code < 400 {
			e.env.Rcpts = append(e.env.Rcpts, rcpt)
			e.state = stRcpt
		}
		e.answer(o, "250 recipient OK")

	case "DATA":
		if e.state != stRcpt {
			e.SequenceViols++
			e.write("503 need RCPT first")
			return
		}
		e.state = stData
		e.write("354 End data with <CR><LF>.<CR><LF>")

	case "RSET":
		e.reset()
		if e.state != stStart {
			e.state = stGreeted
		}
		e.write("250 OK")

	case "NOOP":
		e.write("250 OK")

	case "QUIT":
		e.write("221 Bye")
		if e.closeConn != nil {
			e.closeConn()
		}

	default:
		e.SyntaxErrors++
		e.write("500 command not recognized")
	}
}

var verbs = [...]string{"HELO", "EHLO", "MAIL", "RCPT", "DATA", "RSET", "NOOP", "QUIT"}

// splitVerb returns the command verb line opens with — the entry of verbs
// it matches, "" for none — and the trimmed argument behind it.
func splitVerb(line []byte) (verb string, arg []byte) {
	tok := bytes.TrimSpace(line)
	if sp := bytes.IndexByte(tok, ' '); sp >= 0 {
		tok, arg = tok[:sp], bytes.TrimSpace(tok[sp+1:])
	}
	for _, v := range verbs {
		if rest, ok := cutUpper(tok, v); ok && len(rest) == 0 {
			return v, arg
		}
	}
	return "", arg
}

// cutUpper reports whether b, upper-cased the way strings.ToUpper would,
// starts with the upper-case ASCII keyword kw, and returns what follows it.
func cutUpper(b []byte, kw string) ([]byte, bool) {
	for i := 0; i < len(kw); i++ {
		r, n := utf8.DecodeRune(b)
		if unicode.ToUpper(r) != rune(kw[i]) {
			return nil, false
		}
		b = b[n:]
	}
	return b, true
}

// parseAddrStanza extracts the address from "FROM:<a@b>" and its sloppy
// variants as a slice of arg. Strict mode requires the canonical colon +
// angle brackets form.
func parseAddrStanza(arg []byte, keyword string, s Strictness) ([]byte, bool) {
	rest, ok := cutUpper(arg, keyword)
	if !ok {
		return nil, false
	}
	rest, hasColon := bytes.CutPrefix(rest, []byte{':'})
	hadSpace := len(rest) > 0 && rest[0] == ' '
	rest = bytes.TrimSpace(rest)
	hasBrackets := len(rest) > 1 && rest[0] == '<' && rest[len(rest)-1] == '>'
	if hasBrackets {
		rest = bytes.TrimSpace(rest[1 : len(rest)-1])
	}
	if s == Strict {
		// RFC 821: "MAIL FROM:<reverse-path>" — colon immediately after the
		// keyword, no intervening space, path in angle brackets.
		if !hasColon || !hasBrackets || hadSpace {
			return nil, false
		}
	}
	if bytes.IndexByte(rest, '@') < 0 {
		// Null reverse-path "<>" is legal for MAIL in strict mode.
		return nil, keyword == "FROM" && hasBrackets && len(rest) == 0
	}
	return rest, true
}
