package smtpx

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// model is the string-based engine the byte-based one replaced, kept as the
// reference FuzzEngineFeed holds it to: handleLine, splitVerb and
// parseAddrStanza are the old code (a string per line, ToUpper copies, a
// Sprintf per reply), with the three bounds added and the whole stream
// split up front instead of buffered.
type model struct {
	strictness Strictness
	onMessage  func(env *Envelope) *Reply

	replies  []string
	envs     []*Envelope
	state    int
	helo     string
	from     string
	rcpts    []string
	data     []byte
	oversize bool

	Envelopes int
}

func (m *model) reply(code int, text string) {
	m.replies = append(m.replies, fmt.Sprintf("%d %s", code, text))
}

func (m *model) feed(stream []byte) {
	for {
		nl := bytes.IndexByte(stream, '\n')
		if nl < 0 {
			nl = len(stream)
		}
		if nl > maxLine {
			m.reply(500, "line too long")
		} else if nl < len(stream) {
			m.handleLine(strings.TrimRight(string(stream[:nl]), "\r"))
		}
		if nl == len(stream) {
			return
		}
		stream = stream[nl+1:]
	}
}

func (m *model) handleLine(line string) {
	if m.state == stData {
		if line == "." {
			if m.oversize {
				m.reply(552, "message size exceeds limit")
			} else {
				env := m.envelope()
				m.envs = append(m.envs, env)
				m.Envelopes++
				r := Reply{250, "OK queued"}
				if o := m.onMessage(env); o != nil {
					r = *o
				}
				m.reply(r.Code, r.Text)
			}
			m.state = stGreeted
			m.from, m.rcpts, m.data, m.oversize = "", nil, nil, false
			return
		}
		// Dot-unstuffing per RFC 821 §4.5.2.
		if strings.HasPrefix(line, "..") {
			line = line[1:]
		}
		if m.oversize || len(m.data)+len(line)+1 > maxMessage {
			m.data, m.oversize = nil, true
			return
		}
		m.data = append(m.data, line...)
		m.data = append(m.data, '\n')
		return
	}

	verb, arg := modelSplitVerb(line)
	switch verb {
	case "HELO", "EHLO":
		if m.state != stStart && m.strictness == Strict {
			m.reply(503, "duplicate HELO/EHLO")
			return
		}
		m.helo = arg
		m.state = stGreeted
		m.reply(250, "Hello "+arg)

	case "MAIL":
		if m.state == stStart && m.strictness == Strict {
			m.reply(503, "send HELO first")
			return
		}
		addr, ok := modelParseAddrStanza(arg, "FROM", m.strictness)
		if !ok {
			m.reply(501, "syntax error in MAIL FROM")
			return
		}
		m.from = addr
		m.rcpts = nil
		m.state = stMail
		m.reply(250, "sender OK")

	case "RCPT":
		if m.state != stMail && m.state != stRcpt {
			m.reply(503, "need MAIL first")
			return
		}
		addr, ok := modelParseAddrStanza(arg, "TO", m.strictness)
		if !ok {
			m.reply(501, "syntax error in RCPT TO")
			return
		}
		if len(m.rcpts) >= maxRcpts {
			m.reply(452, "too many recipients")
			return
		}
		m.rcpts = append(m.rcpts, addr)
		m.state = stRcpt
		m.reply(250, "recipient OK")

	case "DATA":
		if m.state != stRcpt {
			m.reply(503, "need RCPT first")
			return
		}
		m.state = stData
		m.reply(354, "End data with <CR><LF>.<CR><LF>")

	case "RSET":
		m.from, m.rcpts, m.data = "", nil, nil
		if m.state != stStart {
			m.state = stGreeted
		}
		m.reply(250, "OK")

	case "NOOP":
		m.reply(250, "OK")

	case "QUIT":
		m.reply(221, "Bye")

	default:
		m.reply(500, "command not recognized")
	}
}

// envelope is the model's transaction as the engine's Envelope type holds
// it.
func (m *model) envelope() *Envelope {
	env := &Envelope{Helo: []byte(m.helo), From: []byte(m.from), Data: m.data}
	for _, r := range m.rcpts {
		env.Rcpts = append(env.Rcpts, []byte(r))
	}
	return env
}

func modelSplitVerb(line string) (string, string) {
	line = strings.TrimSpace(line)
	sp := strings.IndexByte(line, ' ')
	if sp < 0 {
		return strings.ToUpper(line), ""
	}
	return strings.ToUpper(line[:sp]), strings.TrimSpace(line[sp+1:])
}

func modelParseAddrStanza(arg, keyword string, s Strictness) (string, bool) {
	rest := arg
	if !strings.HasPrefix(strings.ToUpper(rest), keyword) {
		return "", false
	}
	rest = rest[len(keyword):]
	hasColon := strings.HasPrefix(rest, ":")
	if hasColon {
		rest = rest[1:]
	}
	hadSpace := strings.TrimLeft(rest, " ") != rest
	rest = strings.TrimSpace(rest)
	hasBrackets := strings.HasPrefix(rest, "<") && strings.HasSuffix(rest, ">")
	if hasBrackets {
		rest = strings.TrimSpace(rest[1 : len(rest)-1])
	}
	if s == Strict {
		if !hasColon || !hasBrackets || hadSpace {
			return "", false
		}
	}
	if rest == "" || !strings.Contains(rest, "@") {
		if keyword == "FROM" && hasBrackets && rest == "" {
			return "", true
		}
		return "", false
	}
	return rest, true
}

// The hook both machines run under, so the override path is compared too:
// a body that says "tempfail" is deferred.
func fuzzOnMessage(env *Envelope) *Reply {
	if bytes.Contains(env.Data, []byte("tempfail")) {
		return &Reply{451, "try again later"}
	}
	return nil
}

// outcome is everything about a session an observer or a later line can
// tell apart.
type outcome struct {
	Replies []string
	Envs    []Envelope
	State   int
	Helo    []byte
	From    []byte
	Rcpts   [][]byte
	Data    []byte
	Over    bool

	Envelopes int
}

// copyEnv copies an envelope and every byte it holds, an empty greeting,
// sender, list or body as nil.
func copyEnv(e *Envelope) Envelope {
	c := Envelope{Helo: append([]byte(nil), e.Helo...), From: append([]byte(nil), e.From...), Data: append([]byte(nil), e.Data...)}
	for _, r := range e.Rcpts {
		c.Rcpts = append(c.Rcpts, append([]byte(nil), r...))
	}
	return c
}

// cut splits stream into chunks whose sizes the fuzzer chose: cuts[i]+1
// bytes each, the last chunk taking whatever is left.
func cut(stream, cuts []byte) [][]byte {
	var chunks [][]byte
	for _, c := range cuts {
		n := int(c) + 1
		if n >= len(stream) {
			break
		}
		chunks = append(chunks, stream[:n])
		stream = stream[n:]
	}
	return append(chunks, stream)
}

func runEngine(s Strictness, chunks [][]byte) outcome {
	var o outcome
	e := NewEngine(s, func(line string) { o.Replies = append(o.Replies, line) }, nil)
	e.OnMessage = func(env *Envelope) *Reply { o.Envs = append(o.Envs, copyEnv(env)); return fuzzOnMessage(env) }
	for _, c := range chunks {
		// Each chunk in a buffer of its own that is scribbled over once
		// Feed returns: the engine may not hold on to what it was handed.
		own := bytes.Clone(c)
		e.Feed(own)
		for i := range own {
			own[i] = 0xff
		}
	}
	cur := copyEnv(&e.env)
	o.State, o.Helo, o.From, o.Rcpts, o.Data, o.Over = e.state, cur.Helo, cur.From, cur.Rcpts, cur.Data, e.oversize
	o.Envelopes = e.Envelopes
	return o
}

func runModel(s Strictness, stream []byte) outcome {
	m := &model{strictness: s, onMessage: fuzzOnMessage}
	m.feed(stream)
	var envs []Envelope
	for _, env := range m.envs {
		envs = append(envs, copyEnv(env))
	}
	cur := copyEnv(m.envelope())
	return outcome{
		Replies: m.replies, Envs: envs,
		State: m.state, Helo: cur.Helo, From: cur.From, Rcpts: cur.Rcpts, Data: cur.Data, Over: m.oversize,
		Envelopes: m.Envelopes,
	}
}

// FuzzEngineFeed: for any byte stream and any way of cutting it into
// segments, the engine fed the segments, the engine fed the stream whole
// and the reference model agree on every reply, envelope, counter and bit
// of session state — Strict and Lenient — and nothing panics.
func FuzzEngineFeed(f *testing.F) {
	crlf := func(lines ...string) []byte { return []byte(strings.Join(lines, "\r\n") + "\r\n") }
	happy := []string{"HELO spambot.example", "MAIL FROM:<grum@spam.biz>", "RCPT TO:<victim@example.org>",
		"DATA", "Subject: cheap pills", "", "buy now", ".", "QUIT"}
	f.Add(crlf(happy...), []byte{})
	f.Add(crlf(happy...), []byte{1, 0, 0, 5, 30, 2}) // "HE" | "L" | "O" | …: split mid-verb
	f.Add(crlf(happy...), bytes.Repeat([]byte{0}, 200))
	f.Add(crlf("HELO a", "HELO a", "EHLO a", "MAIL FROM:<w@x.com>", "RCPT TO:<v@y.com>", "DATA", "hi", "."), []byte{7})
	for _, style := range []AddrStyle{StyleRFC, StyleNoBrackets, StyleSpaceColon, StyleBare} {
		sep, end := style.stanza()
		f.Add(crlf("HELO h", "MAIL FROM"+sep+"a@b.com"+end, "RCPT TO"+sep+"bad@x.com"+end,
			"RCPT TO"+sep+"v@x.com"+end, "DATA", "m", "."), []byte{9, 9, 9})
	}
	f.Add(crlf("mail from:<a@b.com>", "MAIL FROM:<>", "MAIL FROM:<bad@b.c>", "MAIL FROM: < a@b.c >", "RCPT TO:<>", "MAIL", "MAIL FROM"), []byte{3})
	f.Add(crlf("HELO h", "MAIL FROM:<a@b.c>", "RCPT TO:<d@e.f>", "DATA", "..leading dot", ".not a terminator", "...", "tempfail", ".",
		"MAIL FROM:<a@b.c>", "RSET", "NOOP", "XYZZY", "DATA"), []byte{20, 1, 1})
	f.Add([]byte("HELO h\nMAIL FROM:<a@b.c>\r\r\nRCPT TO:<d@e.f>\n\nDATA\nx\r\n.\r"), []byte{4})
	f.Add(append(bytes.Repeat([]byte{'A'}, maxLine+500), "\r\nNOOP\r\n"...), []byte{255, 255, 255, 255})
	f.Add(append(crlf("HELO h", "MAIL FROM:<a@b.c>", "RCPT TO:<d@e.f>", "DATA"),
		append(bytes.Repeat([]byte{'.'}, maxLine+1), "\r\n.\r\n"...)...), []byte{100})
	flood := []string{"HELO h", "MAIL FROM:<a@b.c>"}
	for len(flood) < maxRcpts+4 {
		flood = append(flood, "RCPT TO:<v@x.y>")
	}
	f.Add(crlf(append(flood, "DATA", "m", ".", "MAIL FROM:<a@b.c>", "RCPT TO:<w@x.y>", "DATA", "n", ".")...), []byte{50})
	// strings.ToUpper's reach beyond ASCII, which the byte matcher keeps.
	f.Add(crlf("helo h", "maıl from:<a@b.c>", "rſet", " noop ", "NOOP\xff", "KUIT"), []byte{5, 1})

	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		for _, s := range []Strictness{Strict, Lenient} {
			whole := runEngine(s, [][]byte{stream})
			if chunked := runEngine(s, cut(stream, cuts)); !reflect.DeepEqual(whole, chunked) {
				t.Fatalf("strictness %d: chunking changed the session\nwhole   %+v\nchunked %+v", s, whole, chunked)
			}
			if ref := runModel(s, stream); !reflect.DeepEqual(whole, ref) {
				t.Fatalf("strictness %d: engine and reference model differ\nengine %+v\nmodel  %+v", s, whole, ref)
			}
		}
	})
}
