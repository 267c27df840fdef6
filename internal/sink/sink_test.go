package sink

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gq/internal/host"
	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
	"gq/internal/smtpx"
)

// net3 wires a bot, a sink host, and a "real MX" on one segment.
func net3(t *testing.T, seed int64) (*sim.Simulator, *host.Host, *host.Host, *host.Host) {
	t.Helper()
	s := sim.New(seed)
	sw := netsim.NewSwitch(s, "sw")
	mk := func(name string, n byte, addr string) *host.Host {
		h := host.New(s, name, netstack.MAC{2, 0, 0, 0, 0, n})
		netsim.Connect(sw.AddAccessPort(name, 10), h.NIC(), 0)
		h.ConfigureStatic(netstack.MustParseAddr(addr), 8, 0)
		return h
	}
	return s, mk("bot", 1, "10.0.0.1"), mk("sink", 2, "10.0.0.2"), mk("mx", 3, "10.9.9.9")
}

func TestCatchAllAcceptsEverything(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 1)
	ca := NewCatchAll(sinkHost)
	ports := []uint16{21, 25, 80, 443, 6667, 31337}
	for _, p := range ports {
		p := p
		c := bot.Dial(sinkHost.Addr(), p)
		c.OnConnect = func() { c.Write([]byte("probe-" + netstack.ProtoName(uint8(p%250)))) }
	}
	sock, _ := bot.ListenUDP(4000, nil)
	sock.SendTo(sinkHost.Addr(), 1900, []byte("ssdp-ish"))
	s.RunFor(time.Minute)

	if ca.TCPConns != uint64(len(ports)) {
		t.Fatalf("TCP conns %d, want %d", ca.TCPConns, len(ports))
	}
	if ca.UDPDatagrams != 1 {
		t.Fatalf("UDP datagrams %d", ca.UDPDatagrams)
	}
	for _, p := range ports {
		if ca.ByPort[p] != 1 {
			t.Errorf("port %d count %d", p, ca.ByPort[p])
		}
	}
}

func TestCatchAllLogsFirstBytes(t *testing.T) {
	// The Storm "unexpected visitors" shape: an FTP job shows up at the
	// sink and is identifiable from its first bytes.
	s, bot, sinkHost, _ := net3(t, 2)
	ca := NewCatchAll(sinkHost)
	c := bot.Dial(sinkHost.Addr(), 21)
	c.OnConnect = func() {
		c.Write([]byte("USER webadmin\r\nPASS hunter2\r\nRETR index.html\r\n"))
	}
	s.RunFor(time.Minute)
	hits := ca.FlowsMatching("RETR index.html")
	if len(hits) != 1 || hits[0].Port != 21 {
		t.Fatalf("iframe-injection job not identifiable: %+v", ca.Flows)
	}
}

// An inmate flooding the catch-all grows its log to maxFlowLogs and no
// further: the sink still counts every datagram and connection, and counts
// each one it did not log in flow_log_full, a series that exists only once
// the log has refused one.
func TestCatchAllLogIsBounded(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 5)
	ca := NewCatchAll(sinkHost)
	sock, _ := bot.ListenUDP(4000, nil)
	full := "sink." + sinkHost.Name + ".flow_log_full"
	const flood = maxFlowLogs + 1
	// The first datagram goes alone: the ones behind it would wait for ARP
	// in a bounded queue.
	for sent, batch := 0, 1; sent < flood; batch = 512 {
		for end := min(sent+batch, flood); sent < end; sent++ {
			sock.SendTo(sinkHost.Addr(), uint16(1000+sent%4), []byte("datagram "+strconv.Itoa(sent)))
		}
		s.RunFor(10 * time.Millisecond)
		if _, ok := s.Obs().Snapshot().Counters[full]; ok && sent < flood {
			t.Fatalf("%s registered after %d datagrams, before the log was full", full, sent)
		}
	}
	c := bot.Dial(sinkHost.Addr(), 21)
	c.OnConnect = func() { c.Write([]byte("USER past the bound\r\n")) }
	s.RunFor(time.Minute)

	if ca.UDPDatagrams != flood || ca.TCPConns != 1 || ca.ByPort[21] != 1 {
		t.Fatalf("counted %d datagrams and %d connections, want %d and 1", ca.UDPDatagrams, ca.TCPConns, flood)
	}
	if len(ca.Flows) != maxFlowLogs || ca.Flows[maxFlowLogs-1].First != "datagram "+strconv.Itoa(maxFlowLogs-1) {
		t.Fatalf("log holds %d entries, want the first %d", len(ca.Flows), maxFlowLogs)
	}
	if n := s.Obs().Snapshot().Counter(full); n != 2 {
		t.Fatalf("%s = %d, want 2: one datagram and one connection past the bound", full, n)
	}
	if hits := ca.FlowsMatching("past the bound"); len(hits) != 0 {
		t.Fatalf("a connection past the bound was logged: %+v", hits)
	}
}

// mail is a message as a test writes it down.
type mail struct {
	from  string
	rcpts []string
	data  string
}

// withMail has cfg's session offer ms, rendered into the session's Message
// the way a specimen renders them: into its buffers, from their start.
func withMail(cfg smtpx.ClientConfig, ms ...mail) smtpx.ClientConfig {
	cfg.Messages = len(ms)
	cfg.Render = func(i int, m *smtpx.Message) {
		m.From = append(m.From[:0], ms[i].from...)
		m.Rcpts = slices.Grow(m.Rcpts[:0], len(ms[i].rcpts))[:len(ms[i].rcpts)]
		for j, r := range ms[i].rcpts {
			m.Rcpts[j] = append(m.Rcpts[j][:0], r...)
		}
		m.Data = append(m.Data[:0], ms[i].data...)
	}
	return cfg
}

func TestSMTPSinkHarvestsSpam(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 3)
	sk, err := NewSMTPSink(sinkHost, SMTPConfig{Port: 25, Strictness: smtpx.Lenient})
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	smtpx.Send(bot, sinkHost.Addr(), 25, withMail(smtpx.ClientConfig{
		Helo:   "spambot",
		OnDone: func(n int, err error) { delivered = n },
	},
		mail{"a@spam.biz", []string{"v1@x.com"}, "pills"},
		mail{"a@spam.biz", []string{"v2@x.com"}, "watches"},
	))
	s.RunFor(time.Minute)
	if delivered != 2 || sk.Sessions != 1 || sk.DataTransfers != 2 {
		t.Fatalf("delivered=%d sessions=%d data=%d", delivered, sk.Sessions, sk.DataTransfers)
	}
	pi := sk.ByInmate[bot.Addr()]
	if pi == nil || pi.Sessions != 1 || pi.DataTransfers != 2 {
		t.Fatalf("per-inmate %+v", pi)
	}
	if len(pi.HELOs) != 1 || pi.HELOs[0] != "spambot" {
		t.Fatalf("HELOs %v", pi.HELOs)
	}
	if len(sk.Envelopes) != 2 || !strings.Contains(string(sk.Envelopes[0].Data), "pills") {
		t.Fatalf("envelopes %+v", sk.Envelopes)
	}
	// Kept envelopes are copies: each reads what was delivered after the
	// engine reused (and, in test binaries, poisoned) its one Envelope.
	for i, want := range []smtpx.Envelope{
		{Helo: "spambot", From: "a@spam.biz", Rcpts: []string{"v1@x.com"}, Data: []byte("pills\n")},
		{Helo: "spambot", From: "a@spam.biz", Rcpts: []string{"v2@x.com"}, Data: []byte("watches\n")},
	} {
		if !reflect.DeepEqual(*sk.Envelopes[i], want) {
			t.Errorf("kept envelope %d reads\n%+v\nafter the session, delivered as\n%+v", i, *sk.Envelopes[i], want)
		}
	}
}

// A bot that delivers more messages than the sink keeps: Envelopes holds
// the first maxKeptEnvelopes, DataTransfers counts every one.
func TestSMTPSinkBoundsKeptEnvelopes(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 3)
	sk, err := NewSMTPSink(sinkHost, SMTPConfig{Port: 25, Strictness: smtpx.Lenient})
	if err != nil {
		t.Fatal(err)
	}
	const sent = 1030
	msgs := make([]mail, sent)
	for i := range msgs {
		msgs[i] = mail{"a@spam.biz", []string{"v@x.com"}, fmt.Sprintf("spam %d", i)}
	}
	delivered := 0
	smtpx.Send(bot, sinkHost.Addr(), 25, withMail(smtpx.ClientConfig{
		Helo:   "spambot",
		OnDone: func(n int, err error) { delivered = n },
	}, msgs...))
	s.RunFor(10 * time.Minute)
	if delivered != sent || sk.DataTransfers != sent {
		t.Fatalf("delivered=%d data=%d, want %d", delivered, sk.DataTransfers, sent)
	}
	if len(sk.Envelopes) != 1024 {
		t.Fatalf("kept %d envelopes, want the first 1024", len(sk.Envelopes))
	}
	if got := string(sk.Envelopes[1023].Data); !strings.Contains(got, "spam 1023") {
		t.Fatalf("last kept envelope %q, want message 1023", got)
	}
}

// An inmate greeting with a new name every time grows PerInmate.HELOs to
// its cap and no further; a repeated name is recorded once.
func TestSMTPSinkBoundsDistinctHELOs(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 3)
	sk, err := NewSMTPSink(sinkHost, SMTPConfig{Port: 25, Strictness: smtpx.Lenient})
	if err != nil {
		t.Fatal(err)
	}
	c := bot.Dial(sinkHost.Addr(), 25)
	c.OnConnect = func() {
		for i := 0; i < 3*maxHELOs; i++ {
			c.Write([]byte("HELO node" + strconv.Itoa(i%(2*maxHELOs)) + "\r\n"))
		}
		c.Write([]byte("QUIT\r\n"))
	}
	s.RunFor(time.Minute)
	pi := sk.ByInmate[bot.Addr()]
	if pi == nil || len(pi.HELOs) != maxHELOs || pi.HELOs[0] != "node0" || pi.HELOs[maxHELOs-1] != "node"+strconv.Itoa(maxHELOs-1) {
		t.Fatalf("%d distinct greetings kept %v, want the first %d", 2*maxHELOs, pi, maxHELOs)
	}
}

func TestSMTPSinkProbabilisticDrop(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 4)
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{Port: 25, DropProb: 0.35, Strictness: smtpx.Lenient})
	const tries = 400
	for i := 0; i < tries; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Second, func() {
			smtpx.Send(bot, sinkHost.Addr(), 25, withMail(smtpx.ClientConfig{Helo: "bot"},
				mail{"a@b.c", []string{"v@x.com"}, "m"}))
		})
	}
	s.RunFor(tries*time.Second + time.Minute)
	total := sk.Sessions + sk.DroppedConns
	if total != tries {
		t.Fatalf("accounted %d of %d connections", total, tries)
	}
	// The Fig. 7 shape: flows (tries) exceed completed sessions.
	frac := float64(sk.DroppedConns) / float64(tries)
	if frac < 0.25 || frac > 0.45 {
		t.Fatalf("drop fraction %.2f, configured 0.35", frac)
	}
	if sk.DataTransfers != sk.Sessions {
		t.Fatalf("data=%d sessions=%d (one message per surviving session)", sk.DataTransfers, sk.Sessions)
	}
}

func TestSMTPSinkBannerGrab(t *testing.T) {
	s, bot, sinkHost, mx := net3(t, 5)
	// The real MX greets with a distinctive banner.
	realBanner := "220 mx.google.com ESMTP gsmtp"
	if err := mx.Listen(25, func(c *host.Conn) { smtpx.Bind(c, smtpx.Lenient).Greet(realBanner) }); err != nil {
		t.Fatal(err)
	}
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{Port: 2526, BannerGrab: true, Strictness: smtpx.Lenient})
	sk.Expect(bot.Addr(), mx.Addr())

	var banner string
	c := bot.Dial(sinkHost.Addr(), 2526)
	c.OnData = func(d []byte) {
		if banner == "" {
			banner = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Minute)
	if banner != realBanner {
		t.Fatalf("banner %q, want grabbed %q", banner, realBanner)
	}
	if sk.GrabAttempts != 1 {
		t.Fatalf("grab attempts %d", sk.GrabAttempts)
	}

	// Second connection: served from cache.
	var banner2 string
	c2 := bot.Dial(sinkHost.Addr(), 2526)
	c2.OnData = func(d []byte) {
		if banner2 == "" {
			banner2 = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Minute)
	if banner2 != realBanner || sk.GrabHits != 1 || sk.GrabAttempts != 1 {
		t.Fatalf("cache miss: banner2=%q hits=%d attempts=%d", banner2, sk.GrabHits, sk.GrabAttempts)
	}
}

func TestSMTPSinkBannerGrabFallback(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 6)
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{
		Port: 2526, Banner: "220 fallback", BannerGrab: true, Strictness: smtpx.Lenient,
	})
	// Expected target does not exist.
	sk.Expect(bot.Addr(), netstack.MustParseAddr("10.8.8.8"))
	var banner string
	c := bot.Dial(sinkHost.Addr(), 2526)
	c.OnData = func(d []byte) {
		if banner == "" {
			banner = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Minute)
	if banner != "220 fallback" {
		t.Fatalf("banner %q, want fallback", banner)
	}
}

func TestSMTPSinkUnknownTargetUsesStaticBanner(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 7)
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{
		Port: 2526, Banner: "220 static", BannerGrab: true, Strictness: smtpx.Lenient,
	})
	_ = sk
	var banner string
	c := bot.Dial(sinkHost.Addr(), 2526)
	c.OnData = func(d []byte) {
		if banner == "" {
			banner = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Minute)
	if banner != "220 static" {
		t.Fatalf("banner %q", banner)
	}
}

func TestSMTPSinkControlMessage(t *testing.T) {
	s, bot, sinkHost, mx := net3(t, 8)
	mx.Listen(25, func(c *host.Conn) { smtpx.Bind(c, smtpx.Lenient).Greet("220 grabbed.example") })
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{Port: 2526, BannerGrab: true, Strictness: smtpx.Lenient})
	_ = sk
	// A "containment server" (here: the mx host doubling as CS) sends the
	// EXPECT control datagram.
	sock, _ := mx.ListenUDP(0, nil)
	sock.SendTo(sinkHost.Addr(), 2527, []byte("EXPECT "+bot.Addr().String()+" "+mx.Addr().String()))
	s.RunFor(time.Second)

	var banner string
	c := bot.Dial(sinkHost.Addr(), 2526)
	c.OnData = func(d []byte) {
		if banner == "" {
			banner = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Minute)
	if banner != "220 grabbed.example" {
		t.Fatalf("banner %q; EXPECT control message not honoured", banner)
	}
}

func TestSMTPSinkExploratoryErrorCodes(t *testing.T) {
	// §7.1 exploratory containment: expose the specimen to specific SMTP
	// error conditions, from an engine the experiment binds on the sink
	// host itself.
	s, bot, sinkHost, _ := net3(t, 9)
	err := sinkHost.Listen(25, func(c *host.Conn) {
		eng := smtpx.Bind(c, smtpx.Lenient)
		eng.OnRcpt = func(addr string) *smtpx.Reply {
			if strings.HasSuffix(addr, "@full.example") {
				return &smtpx.Reply{Code: 452, Text: "mailbox full"}
			}
			return nil
		}
		eng.Greet("220 mail.example.com ESMTP Postfix")
	})
	if err != nil {
		t.Fatal(err)
	}
	var codes []int
	smtpx.Send(bot, sinkHost.Addr(), 25, withMail(smtpx.ClientConfig{
		Helo:        "bot",
		OnDelivered: func(_ int, _ *smtpx.Message, code int) { codes = append(codes, code) },
	}, mail{"a@b.c", []string{"v@full.example", "v@ok.example"}, "m"}))
	s.RunFor(time.Minute)
	if len(codes) != 1 || codes[0] != 250 {
		t.Fatalf("codes %v", codes)
	}
}

func TestHTTPSink(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 10)
	hs, err := NewHTTPSink(sinkHost, 80)
	if err != nil {
		t.Fatal(err)
	}
	c := bot.Dial(sinkHost.Addr(), 80)
	c.OnConnect = func() {
		c.Write([]byte("GET /click?ad=1 HTTP/1.1\r\nHost: ads.example\r\n\r\n"))
		c.Write([]byte("GET /click?ad=2 HTTP/1.1\r\nHost: ads.example\r\n\r\n"))
	}
	s.RunFor(time.Minute)
	if hs.Hits != 2 || len(hs.URLs) != 2 || hs.URLs[1] != "/click?ad=2" {
		t.Fatalf("hits=%d urls=%v", hs.Hits, hs.URLs)
	}
}

// An HTTP request head is inmate-chosen bytes: 8 MiB without the blank line
// that ends one closes the connection, and the sink never holds more than
// maxRequestHead of it. Heads split across segments still parse, Hits
// counts every request and URLs keeps the first maxKeptURLs targets.
func TestHTTPSinkBoundsRequestHeads(t *testing.T) {
	s, bot, sinkHost, _ := net3(t, 11)
	hs, err := NewHTTPSink(sinkHost, 80)
	if err != nil {
		t.Fatal(err)
	}
	var srv *host.Conn
	if err := sinkHost.Listen(81, func(c *host.Conn) { srv = c }); err != nil {
		t.Fatal(err)
	}
	flood := bot.Dial(sinkHost.Addr(), 80)
	var refused bool
	flood.OnPeerClose = func() { refused = true }
	flood.OnConnect = func() { flood.Write(bytes.Repeat([]byte("A"), 8<<20)) }
	bot.Dial(sinkHost.Addr(), 81)
	s.RunFor(time.Minute)
	if !refused || hs.Hits != 0 {
		t.Fatalf("8 MiB without a blank line: sink closed = %v, hits %d", refused, hs.Hits)
	}

	// The same stream fed to one connection's reader, segment by segment.
	hc := &httpConn{sink: hs, conn: srv}
	seg := bytes.Repeat([]byte("A"), 1460)
	for fed := 0; fed < 8<<20; fed += len(seg) {
		hc.onData(seg)
		if cap(hc.buf) > maxRequestHead {
			t.Fatalf("after %d bytes the head buffer holds %d, bound %d", fed+len(seg), cap(hc.buf), maxRequestHead)
		}
	}
	if !hc.closed || hs.Hits != 0 {
		t.Fatalf("reader closed = %v, hits %d", hc.closed, hs.Hits)
	}
	// One delivery past the bound, without its blank line or with it.
	long := bytes.Repeat([]byte("B"), 2*maxRequestHead)
	for _, d := range [][]byte{long, append(long[:maxRequestHead:maxRequestHead], "\r\n\r\n"...)} {
		hc := &httpConn{sink: hs, conn: srv}
		hc.onData(d)
		if !hc.closed || cap(hc.buf) > maxRequestHead {
			t.Fatalf("a %d-byte delivery: reader closed = %v, buffer %d", len(d), hc.closed, cap(hc.buf))
		}
	}

	// Well-formed traffic, every request cut at a different place.
	var stream []byte
	const requests = maxKeptURLs + 10
	for i := 0; i < requests; i++ {
		stream = append(stream, "GET /click?ad="+strconv.Itoa(i)+" HTTP/1.1\r\nHost: ads.example\r\n\r\n"...)
	}
	hc = &httpConn{sink: hs, conn: srv}
	for off, n := 0, 1; off < len(stream); off, n = off+n, n%97+1 {
		hc.onData(stream[off:min(off+n, len(stream))])
	}
	if hc.closed || hs.Hits != requests || len(hs.URLs) != maxKeptURLs ||
		hs.URLs[0] != "/click?ad=0" || hs.URLs[maxKeptURLs-1] != "/click?ad="+strconv.Itoa(maxKeptURLs-1) {
		t.Fatalf("closed %v, hits %d, %d URLs kept (first %q)", hc.closed, hs.Hits, len(hs.URLs), hs.URLs[:1])
	}
}

// A grabbed greeting longer than an SMTP reply line is no banner: the sink
// falls back to its static one at once instead of buffering the target's
// bytes until the grab times out.
func TestSMTPSinkBannerGrabBounded(t *testing.T) {
	s, bot, sinkHost, mx := net3(t, 12)
	if err := mx.Listen(25, func(c *host.Conn) { c.Write(bytes.Repeat([]byte("2"), 8<<20)) }); err != nil {
		t.Fatal(err)
	}
	sk, _ := NewSMTPSink(sinkHost, SMTPConfig{Port: 2526, Banner: "220 fallback", BannerGrab: true, Strictness: smtpx.Lenient})
	sk.Expect(bot.Addr(), mx.Addr())
	var banner string
	c := bot.Dial(sinkHost.Addr(), 2526)
	c.OnData = func(d []byte) {
		if banner == "" {
			banner = strings.TrimSpace(string(d))
		}
	}
	s.RunFor(time.Second) // the grab gives up after five
	if banner != "220 fallback" || sk.bannerCache[mx.Addr()] != "220 fallback" {
		t.Fatalf("banner %q (cached %q), want the fallback", banner, sk.bannerCache[mx.Addr()])
	}
}
