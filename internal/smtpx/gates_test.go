package smtpx

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// recorded is an engine whose replies and envelopes a test can read as the
// session goes on.
type recorded struct {
	*Engine
	replies []string
	envs    []Envelope // copies: the engine reuses what it hands OnMessage
}

func record(s Strictness) *recorded {
	r := &recorded{}
	r.Engine = NewEngine(s, func(l string) { r.replies = append(r.replies, l) }, nil)
	r.OnMessage = func(env *Envelope) *Reply { r.envs = append(r.envs, copyEnv(env)); return nil }
	r.Greet("220 sink")
	return r
}

// --- bounds on what an inmate can make a session hold (DESIGN.md §5) ---

// A stream that never sends an LF is answered once per overlong line and
// held in no more than one line's worth of carry-over.
func TestEngineBoundsLineLength(t *testing.T) {
	eng := record(Lenient)
	seg := bytes.Repeat([]byte{'A'}, 1460)
	for fed := 0; fed < 8<<20; fed += len(seg) {
		eng.Feed(seg)
	}
	if cap(eng.in.buf) > maxLine {
		t.Errorf("8 MiB without an LF left a %d-byte carry-over buffer, line limit %d", cap(eng.in.buf), maxLine)
	}
	if want := []string{"220 sink", "500 line too long"}; !slices.Equal(eng.replies, want) || eng.SyntaxErrors != 1 {
		t.Fatalf("replies %v (want %v), SyntaxErrors %d", eng.replies, want, eng.SyntaxErrors)
	}
	// The line ends at its LF; the session carries on behind it.
	eng.Feed([]byte("AAAA\r\nNOOP\r\n"))
	if len(eng.replies) != 3 || eng.replies[2] != "250 OK" {
		t.Fatalf("session did not resume after the overlong line: %v", eng.replies)
	}
	// Exactly maxLine octets before the LF is still a line.
	eng.Feed(append(bytes.Repeat([]byte{'B'}, maxLine), '\n'))
	if got := eng.replies[len(eng.replies)-1]; got != "500 command not recognized" {
		t.Fatalf("a %d-octet line was answered %q", maxLine, got)
	}
}

// A DATA stage that outgrows the message limit holds nothing, is refused
// at its dot, and leaves the session where the next message can follow.
func TestEngineBoundsMessageSize(t *testing.T) {
	eng := record(Lenient)
	eng.Feed([]byte("HELO h\r\nMAIL FROM:<a@b.c>\r\nRCPT TO:<d@e.f>\r\nDATA\r\n"))
	line := append(bytes.Repeat([]byte{'x'}, 999), '\r', '\n')
	for fed := 0; fed <= maxMessage; fed += 1000 { // 999 octets and the LF the body keeps
		eng.Feed(line)
	}
	if !eng.oversize || eng.env.Data != nil {
		t.Fatalf("past %d body octets: oversize=%v, %d octets held", maxMessage, eng.oversize, len(eng.env.Data))
	}
	eng.Feed([]byte(".\r\n"))
	if got := eng.replies[len(eng.replies)-1]; got != "552 message size exceeds limit" || len(eng.envs) != 0 || eng.state != stGreeted {
		t.Fatalf("oversize message answered %q, %d envelopes, state %d", got, len(eng.envs), eng.state)
	}
	eng.Feed([]byte("MAIL FROM:<a@b.c>\r\nRCPT TO:<d@e.f>\r\nDATA\r\nsmall\r\n.\r\n"))
	if got := eng.replies[len(eng.replies)-1]; got != "250 OK queued" || len(eng.envs) != 1 || string(eng.envs[0].Data) != "small\n" {
		t.Fatalf("message after the oversize one answered %q, envelopes %+v", got, eng.envs)
	}
}

// --- allocation gates: the text path costs what it keeps ---

// A warm engine outside DATA allocates nothing for a command line beyond
// the argument it stores: the line is parsed where it lies and the default
// replies are constants.
func TestEngineFeedAllocsPerCommand(t *testing.T) {
	eng := NewEngine(Lenient, func(string) {}, nil)
	eng.Greet("220 sink")
	eng.Feed([]byte("HELO warm\r\n"))
	for _, tc := range []struct {
		line string
		want float64
		why  string
	}{
		{"NOOP\r\n", 0, ""},
		{"noop \r\n", 0, ""},
		{"XYZZY plugh\r\n", 0, ""},
		{"RCPT TO:<early@x.y>\r\n", 0, ""}, // 503 need MAIL first
		{"MAIL FROM <nobody>\r\n", 0, ""},  // 501: nothing stored
		{"RSET\r\n", 0, ""},
		{"MAIL FROM:<a@b.c>\r\n", 1, "the sender"},
	} {
		line := []byte(tc.line)
		if got := testing.AllocsPerRun(100, func() { eng.Feed(line) }); got != tc.want {
			t.Errorf("Feed(%q): %v allocs, want %v (%s)", tc.line, got, tc.want, tc.why)
		}
	}
	// A line split across segments goes through the carry-over buffer,
	// which is allocated once per session.
	head, tail := []byte("NO"), []byte("OP\r\n")
	if got := testing.AllocsPerRun(100, func() { eng.Feed(head); eng.Feed(tail) }); got != 0 {
		t.Errorf("split NOOP: %v allocs, want 0", got)
	}
}

// TestSessionAllocsPerMessage joins a client and a server engine over two
// hosts on one link and counts what a delivered message costs the heap.
// Its segments and ACKs come from the domain's frame list and the client
// renders every message into the session's one Message, the server collects
// it into the engine's one Envelope (DESIGN.md §3b), so a message costs only
// what the server turns into strings:
//
//	server: the sender, the recipient — 2
func TestSessionAllocsPerMessage(t *testing.T) {
	s := sim.New(1)
	bot := host.New(s, "bot", netstack.MAC{2, 0, 0, 0, 0, 1})
	mx := host.New(s, "mx", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(bot.NIC(), mx.NIC(), 0)
	bot.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	mx.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	serve(t, mx, 25, "220 mx ESMTP", Lenient)
	const perMessage = 2
	m := mail{"bot@spam.biz", []string{"victim@inbox.example"}, "Subject: cheap meds\n\ncheap meds #1"}

	deliver := func(n int) uint64 {
		msgs := make([]mail, n)
		for i := range msgs {
			msgs[i] = m
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		delivered := 0
		Send(bot, mx.Addr(), 25, withMail(ClientConfig{Helo: "bot",
			OnDone: func(d int, err error) { delivered = d }}, msgs...))
		s.RunFor(time.Minute)
		runtime.ReadMemStats(&after)
		if delivered != n {
			t.Fatalf("delivered %d of %d", delivered, n)
		}
		return after.Mallocs - before.Mallocs
	}
	deliver(20) // ARP, event queue, frame lists
	m1 := deliver(50)
	m2 := deliver(150)
	// The difference of two sessions is 100 messages with the per-session
	// costs (connection, closures, scratch buffers, handshake) cancelled.
	perMsg := float64(m2-m1) / 100
	t.Logf("%.2f mallocs per message", perMsg)
	if perMsg > perMessage {
		t.Errorf("a delivered message costs %.2f mallocs, ceiling %d", perMsg, perMessage)
	}
}
