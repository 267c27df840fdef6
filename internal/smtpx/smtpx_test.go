package smtpx

import (
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// scripted runs an engine against a sequence of client lines and returns
// the replies.
func scripted(s Strictness, lines []string) ([]string, []Envelope) {
	r := record(s)
	for _, l := range lines {
		r.Feed([]byte(l + "\r\n"))
	}
	return r.replies, r.envs
}

func codes(replies []string) []int {
	var out []int
	for _, r := range replies {
		out = append(out, replyCode([]byte(r)))
	}
	return out
}

func TestEngineHappyPath(t *testing.T) {
	replies, envs := scripted(Strict, []string{
		"HELO spambot.example",
		"MAIL FROM:<grum@spam.biz>",
		"RCPT TO:<victim@example.org>",
		"DATA",
		"Subject: cheap pills",
		"",
		"buy now",
		".",
		"QUIT",
	})
	want := []int{220, 250, 250, 250, 354, 250, 221}
	got := codes(replies)
	if len(got) != len(want) {
		t.Fatalf("replies %v", replies)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reply[%d] = %d, want %d (%v)", i, got[i], want[i], replies)
		}
	}
	if len(envs) != 1 {
		t.Fatalf("%d envelopes", len(envs))
	}
	env := envs[0]
	if string(env.From) != "grum@spam.biz" || len(env.Rcpts) != 1 || string(env.Rcpts[0]) != "victim@example.org" {
		t.Fatalf("envelope %q", env)
	}
	if !strings.Contains(string(env.Data), "buy now") {
		t.Fatalf("data %q", env.Data)
	}
}

func TestStrictRejectsRepeatedHelo(t *testing.T) {
	replies, _ := scripted(Strict, []string{"HELO a", "HELO a", "HELO a"})
	got := codes(replies)
	if got[1] != 250 || got[2] != 503 || got[3] != 503 {
		t.Fatalf("replies %v", replies)
	}
}

func TestLenientAcceptsRepeatedHelo(t *testing.T) {
	replies, envs := scripted(Lenient, []string{
		"HELO wergvan", "HELO wergvan",
		"MAIL FROM:<w@x.com>", "RCPT TO:<v@y.com>", "DATA", "hi", ".",
	})
	got := codes(replies)
	for i, c := range got {
		if c >= 400 {
			t.Fatalf("lenient engine rejected line %d: %v", i, replies)
		}
	}
	if len(envs) != 1 {
		t.Fatalf("DATA stage never reached: %v", replies)
	}
}

func TestStrictRejectsSloppyAddresses(t *testing.T) {
	for _, stanza := range []string{
		"MAIL FROM: <a@b.com>", // space after colon
		"MAIL FROM:a@b.com",    // no brackets
		"MAIL FROM a@b.com",    // no colon
	} {
		replies, _ := scripted(Strict, []string{"HELO h", stanza})
		if got := codes(replies); got[2] != 501 {
			t.Errorf("strict accepted %q: %v", stanza, replies)
		}
	}
	// Canonical form accepted.
	replies, _ := scripted(Strict, []string{"HELO h", "MAIL FROM:<a@b.com>"})
	if got := codes(replies); got[2] != 250 {
		t.Errorf("strict rejected canonical form: %v", replies)
	}
}

func TestLenientAcceptsSloppyAddresses(t *testing.T) {
	for _, stanza := range []string{
		"MAIL FROM: <a@b.com>",
		"MAIL FROM:a@b.com",
		"MAIL FROM a@b.com",
		"mail from:<a@b.com>",
	} {
		replies, _ := scripted(Lenient, []string{"HELO h", stanza})
		if got := codes(replies); got[2] != 250 {
			t.Errorf("lenient rejected %q: %v", stanza, replies)
		}
	}
}

func TestStrictRequiresHeloBeforeMail(t *testing.T) {
	replies, _ := scripted(Strict, []string{"MAIL FROM:<a@b.com>"})
	if got := codes(replies); got[1] != 503 {
		t.Fatalf("replies %v", replies)
	}
}

func TestNullReversePathAllowed(t *testing.T) {
	replies, _ := scripted(Strict, []string{"HELO h", "MAIL FROM:<>"})
	if got := codes(replies); got[2] != 250 {
		t.Fatalf("bounce sender rejected: %v", replies)
	}
}

func TestDotUnstuffing(t *testing.T) {
	_, envs := scripted(Lenient, []string{
		"HELO h", "MAIL FROM:<a@b.c>", "RCPT TO:<d@e.f>", "DATA",
		"..leading dot", ".",
	})
	if len(envs) != 1 || !strings.HasPrefix(string(envs[0].Data), ".leading dot") {
		t.Fatalf("unstuffing failed: %+v", envs)
	}
}

func TestRset(t *testing.T) {
	replies, envs := scripted(Lenient, []string{
		"HELO h", "MAIL FROM:<a@b.c>", "RSET",
		"MAIL FROM:<x@y.z>", "RCPT TO:<d@e.f>", "DATA", "m", ".",
	})
	if len(envs) != 1 || string(envs[0].From) != "x@y.z" {
		t.Fatalf("RSET broke session: %v %+v", replies, envs)
	}
}

func TestUnknownCommand(t *testing.T) {
	replies, _ := scripted(Strict, []string{"HELO h", "XYZZY"})
	if got := codes(replies); len(got) != 3 || got[2] != 500 {
		t.Fatalf("replies %v", replies)
	}
}

// --- end-to-end client/server over the simulated network ---

func mailNet(t *testing.T) (*sim.Simulator, *host.Host, *host.Host) {
	t.Helper()
	s := sim.New(1)
	sw := netsim.NewSwitch(s, "sw")
	bot := host.New(s, "bot", netstack.MAC{2, 0, 0, 0, 0, 1})
	mx := host.New(s, "mx", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("bot", 10), bot.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("mx", 10), mx.NIC(), 0)
	bot.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	mx.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	return s, bot, mx
}

// served counts what a plain server bound by serve saw: accepted
// connections and completed messages.
type served struct{ sessions, envelopes int }

// serve binds a plain engine to every connection on h's port, greeted at
// once with banner, and counts its sessions and messages.
func serve(t *testing.T, h *host.Host, port uint16, banner string, s Strictness) *served {
	t.Helper()
	n := &served{}
	if err := h.Listen(port, func(c *host.Conn) {
		n.sessions++
		e := Bind(c, s)
		e.OnMessage = func(*Envelope) *Reply { n.envelopes++; return nil }
		e.Greet(banner)
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestClientDeliversMultipleMessages(t *testing.T) {
	s, bot, mx := mailNet(t)
	srv := serve(t, mx, 25, "220 mx.example.com ESMTP", Lenient)
	var delivered int
	var doneErr error
	Send(bot, mx.Addr(), 25, withMail(ClientConfig{
		Helo:   "bot",
		OnDone: func(n int, err error) { delivered, doneErr = n, err },
	},
		mail{"a@spam.biz", []string{"v1@x.com"}, "one"},
		mail{"a@spam.biz", []string{"v2@x.com", "v3@x.com"}, "two"},
		mail{"a@spam.biz", []string{"v4@x.com"}, "three"},
	))
	s.RunFor(time.Minute)
	if doneErr != nil {
		t.Fatal(doneErr)
	}
	if delivered != 3 || srv.envelopes != 3 || srv.sessions != 1 {
		t.Fatalf("delivered=%d envelopes=%d sessions=%d", delivered, srv.envelopes, srv.sessions)
	}
}

func TestSloppyClientFailsAgainstStrictServer(t *testing.T) {
	// The §7.1 protocol-violations shape: connection-level activity looks
	// healthy but no DATA stage is ever reached against a strict sink.
	s, bot, mx := mailNet(t)
	srv := serve(t, mx, 25, "220 mx ESMTP", Strict)
	var delivered int
	Send(bot, mx.Addr(), 25, withMail(ClientConfig{
		Helo: "bot", RepeatHelo: 2, Style: StyleBare,
		OnDone: func(n int, err error) { delivered = n },
	}, mail{"a@b.c", []string{"v@x.com"}, "m"}))
	s.RunFor(time.Minute)
	if delivered != 0 || srv.envelopes != 0 {
		t.Fatalf("strict server accepted sloppy client: delivered=%d", delivered)
	}

	// Same client against a lenient server succeeds.
	serve(t, mx, 2525, "220 mx ESMTP", Lenient)
	var delivered2 int
	Send(bot, mx.Addr(), 2525, withMail(ClientConfig{
		Helo: "bot", RepeatHelo: 2, Style: StyleBare,
		OnDone: func(n int, err error) { delivered2 = n },
	}, mail{"a@b.c", []string{"v@x.com"}, "m"}))
	s.RunFor(time.Minute)
	if delivered2 != 1 {
		t.Fatalf("lenient server rejected sloppy client: delivered=%d", delivered2)
	}
}

func TestClientBannerRejection(t *testing.T) {
	s, bot, mx := mailNet(t)
	srv := serve(t, mx, 25, "220 sink.gq.local", Lenient)
	var doneErr error
	Send(bot, mx.Addr(), 25, withMail(ClientConfig{
		Helo: "bot",
		OnBanner: func(b string) bool {
			return strings.Contains(b, "gsmtp") // wants a Google banner
		},
		OnDone: func(n int, err error) { doneErr = err },
	}, mail{"a@b.c", []string{"v@x.com"}, "m"}))
	s.RunFor(time.Minute)
	if doneErr == nil {
		t.Fatal("client should abort on unexpected banner")
	}
	if srv.envelopes != 0 {
		t.Fatal("message delivered despite banner rejection")
	}
}

func TestClientRetriesNextRcptOnReject(t *testing.T) {
	s, bot, mx := mailNet(t)
	// A server of the test's own that refuses the first recipient itself
	// and hands every other segment to an engine: the client sends one
	// command per segment and waits for its reply.
	var envs []Envelope
	mx.Listen(25, func(c *host.Conn) {
		e := Bind(c, Lenient)
		c.OnData = func(d []byte) {
			if strings.HasPrefix(string(d), "RCPT TO:<bad@x.com>") {
				c.Write([]byte("550 no such user\r\n"))
				return
			}
			e.Feed(d)
		}
		e.OnMessage = func(env *Envelope) *Reply { envs = append(envs, copyEnv(env)); return nil }
		e.Greet("220 mx")
	})
	var delivered int
	Send(bot, mx.Addr(), 25, withMail(ClientConfig{
		Helo:   "bot",
		OnDone: func(n int, err error) { delivered = n },
	}, mail{"a@b.c", []string{"bad@x.com", "good@x.com"}, "m"}))
	s.RunFor(time.Minute)
	if delivered != 1 || len(envs) != 1 || len(envs[0].Rcpts) != 1 || string(envs[0].Rcpts[0]) != "good@x.com" {
		t.Fatalf("delivered=%d envs=%q", delivered, envs)
	}
}
