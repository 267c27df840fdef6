package smtpx

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
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
	if cap(eng.in.Pending()) > maxLine {
		t.Errorf("8 MiB without an LF left a %d-byte carry-over buffer, line limit %d", cap(eng.in.Pending()), maxLine)
	}
	if want := []string{"220 sink", "500 line too long"}; !slices.Equal(eng.replies, want) {
		t.Fatalf("replies %v (want %v)", eng.replies, want)
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

// A transaction takes maxRcpts recipients; each one past them is answered
// 452 and held nowhere, the session stays open, and both the transaction
// and the next one deliver.
func TestEngineBoundsRecipients(t *testing.T) {
	replies := map[string]int{}
	var envs []Envelope
	eng := NewEngine(Lenient, func(l string) { replies[l]++ }, nil)
	eng.OnMessage = func(env *Envelope) *Reply { envs = append(envs, copyEnv(env)); return nil }
	eng.Feed([]byte("HELO h\r\nMAIL FROM:<a@b.c>\r\n"))
	const flood = 100000
	for i := 0; i < flood; i++ {
		eng.Feed([]byte("RCPT TO:<victim" + strconv.Itoa(i) + "@x.y>\r\n"))
		if len(eng.env.Rcpts) > maxRcpts {
			t.Fatalf("after %d RCPT TO lines the transaction holds %d recipients, cap %d", i+1, len(eng.env.Rcpts), maxRcpts)
		}
	}
	if replies["250 recipient OK"] != maxRcpts || replies["452 too many recipients"] != flood-maxRcpts {
		t.Fatalf("replies %v", replies)
	}
	eng.Feed([]byte("DATA\r\nfirst\r\n.\r\nMAIL FROM:<a@b.c>\r\nRCPT TO:<d@e.f>\r\nDATA\r\nsecond\r\n.\r\n"))
	if replies["250 OK queued"] != 2 || len(envs) != 2 {
		t.Fatalf("after the flood: %d envelopes, replies %v", len(envs), replies)
	}
	if n := len(envs[0].Rcpts); n != maxRcpts || string(envs[0].Rcpts[n-1]) != "victim99@x.y" || string(envs[0].Data) != "first\n" {
		t.Errorf("flooded transaction delivered %d recipients, the last %q, body %q", n, envs[0].Rcpts[n-1], envs[0].Data)
	}
	if len(envs[1].Rcpts) != 1 || string(envs[1].Rcpts[0]) != "d@e.f" || string(envs[1].Data) != "second\n" {
		t.Errorf("the next transaction delivered %q", envs[1])
	}
}

// --- allocation gates: the text path costs what it keeps ---

// A warm engine outside DATA allocates nothing for a command line: the
// line is parsed where it lies, an address goes into the buffer the
// engine keeps for it, and the default replies are constants.
func TestEngineFeedAllocsPerCommand(t *testing.T) {
	eng := NewEngine(Lenient, func(string) {}, nil)
	eng.Greet("220 sink")
	eng.Feed([]byte("HELO warm\r\n"))
	for _, line := range []string{
		"NOOP\r\n",
		"noop \r\n",
		"XYZZY plugh\r\n",
		"RCPT TO:<early@x.y>\r\n", // 503 need MAIL first
		"MAIL FROM <nobody>\r\n",  // 501: nothing stored
		"RSET\r\n",
		"MAIL FROM:<a@b.c>\r\n",
	} {
		b := []byte(line)
		if got := testing.AllocsPerRun(100, func() { eng.Feed(b) }); got != 0 {
			t.Errorf("Feed(%q): %v allocs, want 0", line, got)
		}
	}
	// A line split across segments goes through the carry-over buffer,
	// which is allocated once per session.
	head, tail := []byte("NO"), []byte("OP\r\n")
	if got := testing.AllocsPerRun(100, func() { eng.Feed(head); eng.Feed(tail) }); got != 0 {
		t.Errorf("split NOOP: %v allocs, want 0", got)
	}
}

// A warm engine answers a greeting it already holds from the buffer and the
// reply it kept for it: a repeated HELO or EHLO costs the heap nothing.
func TestEngineHeloAllocsNothing(t *testing.T) {
	eng := NewEngine(Lenient, func(string) {}, nil)
	eng.Greet("220 sink")
	helo, ehlo := []byte("HELO warm.example\r\n"), []byte("EHLO warm.example\r\n")
	eng.Feed(helo)
	if got := testing.AllocsPerRun(100, func() { eng.Feed(helo); eng.Feed(ehlo) }); got != 0 {
		t.Errorf("a warm HELO and EHLO cost %v allocs, want 0", got)
	}
	rec := record(Lenient)
	rec.Feed([]byte("HELO warm.example\r\nHELO w\r\nEHLO other.example\r\n"))
	want := []string{"220 sink", "250 Hello warm.example", "250 Hello w", "250 Hello other.example"}
	if !slices.Equal(rec.replies, want) || string(rec.env.Helo) != "other.example" {
		t.Fatalf("replies %q, greeting %q", rec.replies, rec.env.Helo)
	}
}

// A warm engine whose OnMessage keeps nothing takes a whole transaction —
// sender, two recipients, body — into the buffers it kept from the last
// one: it costs the heap nothing.
func TestEngineTransactionAllocsNothing(t *testing.T) {
	eng := NewEngine(Lenient, func(string) {}, nil)
	messages := 0
	eng.OnMessage = func(*Envelope) *Reply { messages++; return nil }
	eng.Greet("220 sink")
	eng.Feed([]byte("HELO warm\r\n"))
	var lines [][]byte
	for _, l := range []string{"MAIL FROM:<bot@spam.biz>", "RCPT TO:<victim1@inbox.example>",
		"RCPT TO:<victim2@inbox.example>", "DATA", "Subject: cheap meds", "", "cheap meds #1", "."} {
		lines = append(lines, []byte(l+"\r\n"))
	}
	transaction := func() {
		for _, l := range lines {
			eng.Feed(l)
		}
	}
	transaction()
	if got := testing.AllocsPerRun(100, transaction); got != 0 {
		t.Errorf("a warm transaction costs %v allocs, want 0", got)
	}
	if messages != 102 {
		t.Fatalf("%d messages of 102 reached OnMessage", messages)
	}
}

// TestSessionAllocsPerMessage joins a client and a server engine over two
// hosts on one link and counts what a delivered message costs the heap.
// Its segments and ACKs come from the domain's frame list and the client
// renders every message into the session's one Message, the server collects
// it into the buffers of the engine's one Envelope (DESIGN.md §3b), so a
// message costs the heap nothing.
func TestSessionAllocsPerMessage(t *testing.T) {
	s := sim.New(1)
	bot := host.New(s, "bot", netstack.MAC{2, 0, 0, 0, 0, 1})
	mx := host.New(s, "mx", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(bot.NIC(), mx.NIC(), 0)
	bot.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	mx.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	serve(t, mx, 25, "220 mx ESMTP", Lenient)
	const perMessage = 0
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
