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
// server engine collects every message of a session — sender, recipients
// and body — into one Envelope whose buffers it reuses, and the client
// renders every message into one Message it reuses. Each is valid only
// during the callback it is handed to (OnMessage, OnDelivered), like the
// bytes host.Conn hands OnData; a callback that keeps one copies it. In test
// binaries both are overwritten with netsim.PoisonByte once the callback
// returns, so a keeper that did not copy reads garbage.
package smtpx

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"gq/internal/lineio"
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
// struct and the bytes of Helo, From, each of Rcpts and Data.
type Envelope struct {
	Helo  []byte
	From  []byte
	Rcpts [][]byte
	Data  []byte
}

// Reply is an SMTP response line.
type Reply struct {
	Code int
	Text string
}

func (r Reply) String() string { return strconv.Itoa(r.Code) + " " + r.Text }

// What an inmate can make a session hold (DESIGN.md §5): a line of at most
// maxLine octets before its LF (RFC 5321 §4.5.3.1.6), a body of maxMessage,
// maxRcpts recipients per transaction (the minimum RFC 5321 §4.5.3.1.8 asks
// a server to take; each one past it is answered 452).
const (
	maxLine    = 1000
	maxMessage = 1 << 20
	maxRcpts   = 100
)

// Engine is a server-side SMTP session state machine. The caller feeds it
// raw stream bytes; it emits reply lines through the write callback. The
// greeting banner is sent explicitly via Greet, which lets a sink defer it
// (e.g. while grabbing the real target's banner, §7.1 "satisfying
// fidelity").
type Engine struct {
	// Hooks; both optional. arg is the engine's copy of the greeting's
	// argument (Envelope.Helo), valid only during the call.
	OnHelo func(verb string, arg []byte)
	// OnMessage receives each completed envelope; its reply, if any,
	// answers the end-of-DATA dot in place of the default acceptance, which
	// GQ's exploratory containment uses to expose specimens to specific
	// SMTP error conditions. env is the engine's one Envelope, valid only
	// during the call: a callback that keeps it copies it.
	OnMessage func(env *Envelope) *Reply

	strictness Strictness
	write      func(line string)
	closeConn  func()

	state int // 0 start, 1 greeted, 2 mail, 3 rcpt, 4 data
	// env is the message being collected: the session's greeting, and the
	// sender, recipients and body of the current transaction. Its Helo,
	// From, Rcpts (each recipient's bytes too) and Data keep their storage
	// from one message to the next.
	env Envelope
	// hello is the last greeting's reply, written again as long as the
	// session greets with the same name.
	hello    string
	oversize bool // this DATA stage outgrew maxMessage; its body is dropped
	in       lineio.Reader
	greeted  bool

	// Envelopes counts the messages accepted for delivery.
	Envelopes int
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
	return &Engine{strictness: s, write: write, closeConn: closeConn, in: lineio.Reader{Max: maxLine}}
}

// Greet sends the service banner and opens the session.
func (e *Engine) Greet(banner string) {
	if e.greeted {
		return
	}
	e.greeted = true
	e.write(banner)
}

// Feed consumes stream bytes, processing complete lines. data is read in
// place and not retained.
func (e *Engine) Feed(data []byte) { e.in.Feed(data, e.handleLine, e.lineTooLong) }

func (e *Engine) lineTooLong() {
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
			if o != nil {
				e.write(o.String())
			} else {
				e.write("250 OK queued")
			}
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

// reset empties the transaction — sender, recipients, body — keeping their
// storage for the next message.
func (e *Engine) reset() {
	e.env.From, e.env.Rcpts, e.env.Data, e.oversize = e.env.From[:0], e.env.Rcpts[:0], e.env.Data[:0], false
}

// poisonMessages makes test binaries overwrite the Envelope OnMessage was
// handed, and the Message OnDelivered was handed, once the call returns, so
// a callback that kept one instead of copying it reads PoisonByte.
var poisonMessages = testing.Testing()

// poisonEnvelope leaves Helo alone: it is the session's greeting, which
// every later message of the session carries too.
func poisonEnvelope(env *Envelope) {
	poisonBytes(env.From)
	for _, r := range env.Rcpts {
		poisonBytes(r)
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

// handleLine takes one line, without its LF, valid for the call.
func (e *Engine) handleLine(line []byte) {
	line = bytes.TrimRight(line, "\r")
	if e.state == stData {
		e.dataLine(line)
		return
	}
	verb, arg := splitVerb(line)
	switch verb {
	case "HELO", "EHLO":
		if e.state != stStart && e.strictness == Strict {
			e.write("503 duplicate HELO/EHLO")
			return
		}
		e.env.Helo = append(e.env.Helo[:0], arg...)
		e.state = stGreeted
		if e.OnHelo != nil {
			e.OnHelo(verb, e.env.Helo)
		}
		if name, ok := strings.CutPrefix(e.hello, helloPrefix); !ok || name != string(arg) {
			e.hello = helloPrefix + string(arg)
		}
		e.write(e.hello)

	case "MAIL":
		if e.state == stStart && e.strictness == Strict {
			e.write("503 send HELO first")
			return
		}
		addr, ok := parseAddrStanza(arg, "FROM", e.strictness)
		if !ok {
			e.write("501 syntax error in MAIL FROM")
			return
		}
		e.env.From, e.env.Rcpts, e.state = append(e.env.From[:0], addr...), e.env.Rcpts[:0], stMail
		e.write("250 sender OK")

	case "RCPT":
		if e.state != stMail && e.state != stRcpt {
			e.write("503 need MAIL first")
			return
		}
		addr, ok := parseAddrStanza(arg, "TO", e.strictness)
		if !ok {
			e.write("501 syntax error in RCPT TO")
			return
		}
		n := len(e.env.Rcpts)
		if n >= maxRcpts {
			e.write("452 too many recipients")
			return
		}
		// The recipient goes into the buffer the last message's recipient
		// at this place used.
		e.env.Rcpts = slices.Grow(e.env.Rcpts, 1)[:n+1]
		e.env.Rcpts[n] = append(e.env.Rcpts[n][:0], addr...)
		e.state = stRcpt
		e.write("250 recipient OK")

	case "DATA":
		if e.state != stRcpt {
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
		e.write("500 command not recognized")
	}
}

const helloPrefix = "250 Hello "

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
