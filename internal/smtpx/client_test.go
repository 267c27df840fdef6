package smtpx

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netstack"
)

// clientRun is what a scripted server and the client's own callbacks see
// of one session.
type clientRun struct {
	Wire      []byte // everything the client sent, in order
	Banners   []string
	Delivered []string // "idx:code" per OnDelivered
	Done      string   // "delivered/err", "" if the session never ended
}

// mail is a message as a test writes it down.
type mail struct {
	from  string
	rcpts []string
	data  string
}

// withMail has cfg's session offer ms, rendered into the session's Message
// the way a specimen renders them: into its buffers, from their start.
func withMail(cfg ClientConfig, ms ...mail) ClientConfig {
	cfg.Messages = len(ms)
	cfg.Render = func(i int, m *Message) {
		m.From = append(m.From[:0], ms[i].from...)
		m.Rcpts = slices.Grow(m.Rcpts[:0], len(ms[i].rcpts))[:len(ms[i].rcpts)]
		for j, r := range ms[i].rcpts {
			m.Rcpts[j] = append(m.Rcpts[j][:0], r...)
		}
		m.Data = append(m.Data[:0], ms[i].data...)
	}
	return cfg
}

// runClient plays reply bytes at a client as the given chunks — one
// Conn.Write, so at least one segment, each — and records the session.
func runClient(t *testing.T, cfg ClientConfig, chunks [][]byte) clientRun {
	s, bot, mx := mailNet(t)
	var run clientRun
	mx.Listen(25, func(c *host.Conn) {
		c.OnData = func(d []byte) { run.Wire = append(run.Wire, d...) }
		c.OnPeerClose = c.Close
		for _, chunk := range chunks {
			c.Write(chunk)
		}
	})
	cfg.OnBanner = func(b string) bool {
		run.Banners = append(run.Banners, b)
		return !strings.Contains(b, "honeypot")
	}
	cfg.OnDelivered = func(i int, _ *Message, code int) { run.Delivered = append(run.Delivered, fmt.Sprint(i, ":", code)) }
	cfg.OnDone = func(n int, err error) { run.Done = fmt.Sprint(n, "/", err) }
	Send(bot, mx.Addr(), 25, cfg)
	s.RunFor(time.Minute)
	return run
}

// FuzzClientFeed: however the server's reply stream is cut into segments,
// the client sends the same bytes, reports the same deliveries and ends the
// same way — and arbitrary reply bytes never panic it.
func FuzzClientFeed(f *testing.F) {
	ok := "220 mx ESMTP\r\n250 Hello\r\n250 Hello\r\n" +
		"250 sender OK\r\n250 recipient OK\r\n354 go\r\n250 OK queued\r\n" +
		"250 sender OK\r\n550 no such user\r\n250 recipient OK\r\n354 go\r\n451 later\r\n221 Bye\r\n"
	f.Add([]byte(ok), []byte{}, uint8(StyleRFC))
	f.Add([]byte(ok), []byte{2, 0, 0, 40, 1}, uint8(StyleBare)) // "220" | " " | "m" | …
	f.Add([]byte(ok), bytes.Repeat([]byte{0}, 250), uint8(StyleSpaceColon))
	f.Add([]byte("220 honeypot\r\n"), []byte{5}, uint8(StyleRFC))
	f.Add([]byte("554 go away\r\n221 Bye\r\n"), []byte{1, 1}, uint8(StyleNoBrackets))
	f.Add([]byte("220 x\n250 h\n250 h\n501 bad\n503 bad\n221 bye\n"), []byte{3, 3, 3}, uint8(StyleBare))
	f.Add([]byte("220 x\r\n"+strings.Repeat("2", maxLine+200)+"\r\n250 h\r\n"), []byte{200, 200, 200, 200, 200, 200}, uint8(StyleRFC))
	f.Add([]byte("220 x\r\n\r\n\r\nxx\r\n2\r\n\xff\xfe\r\n"), []byte{0, 0, 0}, uint8(9))

	f.Fuzz(func(t *testing.T, replies, cuts []byte, style uint8) {
		if len(replies) > 8<<10 {
			return // a session of a few messages; longer streams only cost time
		}
		cfg := withMail(ClientConfig{Helo: "bot", RepeatHelo: 2, Style: AddrStyle(style)},
			mail{"a@spam.biz", []string{"v1@x.com"}, "Subject: one\n\n.dot first\nbody\n"},
			mail{"b@spam.biz", []string{"v2@x.com", "v3@x.com"}, ""},
		)
		whole := runClient(t, cfg, [][]byte{replies})
		if chunked := runClient(t, cfg, cut(replies, cuts)); !reflect.DeepEqual(whole, chunked) {
			t.Fatalf("chunking changed the session\nwhole   %+v\nchunked %+v", whole, chunked)
		}
	})
}

// The client dot-stuffs and frames a body exactly as the string-based
// sendBody did: one line per LF-separated piece, the empty last one included.
func TestClientBodyOnTheWire(t *testing.T) {
	replies := "220 x\r\n250 h\r\n250 s\r\n250 r\r\n354 go\r\n250 q\r\n221 bye\r\n"
	run := runClient(t, withMail(ClientConfig{Helo: "bot", Style: StyleSpaceColon},
		mail{"a@b.c", []string{"v@x.y"}, "Subject: s\n\n.dot\n..two\nlast\n"},
	), [][]byte{[]byte(replies)})
	want := "HELO bot\r\nMAIL FROM: <a@b.c>\r\nRCPT TO: <v@x.y>\r\nDATA\r\n" +
		"Subject: s\r\n\r\n..dot\r\n...two\r\nlast\r\n\r\n.\r\nQUIT\r\n"
	if string(run.Wire) != want || run.Done != "1/<nil>" {
		t.Fatalf("wire %q\nwant %q\ndone %s", run.Wire, want, run.Done)
	}
}

// A message body leaves in one write, so in as few segments as MSS allows:
// a three-line body with a dot-stuffed line and the final "." in one
// segment, a longer one cut only at MSS. The engine keeps the same envelope
// it keeps from the body's lines written one at a time.
func TestClientBodyLeavesInMSSSegments(t *testing.T) {
	long := strings.Repeat(strings.Repeat("x", 98)+"\n", 40) + "end"
	for _, tc := range []struct {
		body  string
		wire  string
		sizes []int
	}{
		{"Subject: s\n.two\nlast", "Subject: s\r\n..two\r\nlast\r\n.\r\n", []int{28}},
		{long, strings.ReplaceAll(long, "\n", "\r\n") + "\r\n.\r\n", []int{host.MSS, host.MSS, 40*100 + 8 - 2*host.MSS}},
	} {
		s, bot, mx := mailNet(t)
		var envs []Envelope
		if err := mx.Listen(25, func(c *host.Conn) {
			e := Bind(c, Lenient)
			e.OnMessage = func(env *Envelope) *Reply { envs = append(envs, copyEnv(env)); return nil }
			e.Greet("220 mx")
		}); err != nil {
			t.Fatal(err)
		}
		var segs []string
		mx.AddRxHook(func(p *netstack.Packet) {
			if p.TCP != nil && p.TCP.DstPort == 25 && len(p.Payload) > 0 {
				segs = append(segs, string(p.Payload))
			}
		})
		Send(bot, mx.Addr(), 25, withMail(ClientConfig{Helo: "bot"}, mail{"a@b.c", []string{"v@x.y"}, tc.body}))
		s.RunFor(time.Minute)

		i := slices.Index(segs, "DATA\r\n")
		if i < 0 || i+len(tc.sizes) >= len(segs) {
			t.Fatalf("body %.12q: segments %q", tc.body, segs)
		}
		body := segs[i+1 : i+1+len(tc.sizes)]
		var sizes []int
		for _, b := range body {
			sizes = append(sizes, len(b))
		}
		if strings.Join(body, "") != tc.wire || !slices.Equal(sizes, tc.sizes) || segs[i+1+len(tc.sizes)] != "QUIT\r\n" {
			t.Errorf("body %.12q left as %d segments of %v bytes, want %v, then QUIT", tc.body, len(body), sizes, tc.sizes)
		}
		lines := []string{"HELO bot", "MAIL FROM:<a@b.c>", "RCPT TO:<v@x.y>", "DATA"}
		lines = append(lines, strings.Split(strings.TrimSuffix(tc.wire, "\r\n"), "\r\n")...)
		if _, want := scripted(Lenient, lines); !reflect.DeepEqual(envs, want) {
			t.Errorf("body %.12q: the engine kept %q, line by line %q", tc.body, envs, want)
		}
	}
}
