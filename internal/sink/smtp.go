package sink

import (
	"fmt"
	"strings"
	"time"

	"gq/internal/host"
	"gq/internal/httpx"
	"gq/internal/lineio"
	"gq/internal/netstack"
	"gq/internal/obs"
	"gq/internal/smtpx"
)

// SMTPConfig shapes the fidelity-adjustable SMTP sink (§6.3, §7.1).
type SMTPConfig struct {
	// Port is the SMTP listener (default 25); EXPECT notifications from
	// the containment server arrive on UDP Port+1.
	Port uint16
	// Banner is the static greeting used when grabbing is off or fails.
	Banner string
	// BannerGrab makes the sink connect out to the intended target and
	// relay its real greeting — the fidelity Waledac-class bots demand.
	BannerGrab bool
	// DropProb randomly drops (aborts) this fraction of connections,
	// which is why Fig. 7's REFLECTed flow counts exceed completed SMTP
	// sessions.
	DropProb float64
	// Strictness selects the protocol engine's tolerance (§7.1 protocol
	// violations).
	Strictness smtpx.Strictness
}

// maxKeptEnvelopes bounds SMTPSink.Envelopes: messages are inmate-chosen
// bytes.
const maxKeptEnvelopes = 1024

// SMTPSink is the farm's spam-harvesting endpoint.
type SMTPSink struct {
	h   *host.Host
	cfg SMTPConfig

	// Sessions counts accepted (non-dropped) connections; DataTransfers
	// completed DATA stages; DroppedConns probabilistically dropped ones.
	Sessions, DataTransfers, DroppedConns uint64

	// Envelopes keeps copies of the first maxKeptEnvelopes harvested
	// messages; DataTransfers counts every one.
	Envelopes []*smtpx.Envelope

	// expect maps an inmate address to the SMTP target it believed it was
	// contacting (set by containment-server EXPECT control messages).
	expect map[netstack.Addr]netstack.Addr
	// bannerCache holds grabbed greetings per real target.
	bannerCache map[netstack.Addr]string

	// Registry mirrors of the session counters, named sink.<host>.*.
	sessions, dataTransfers, droppedConns *obs.Counter
}

// NewSMTPSink installs the sink on h.
func NewSMTPSink(h *host.Host, cfg SMTPConfig) (*SMTPSink, error) {
	if cfg.Port == 0 {
		cfg.Port = 25
	}
	if cfg.Banner == "" {
		cfg.Banner = "220 mail.example.com ESMTP Postfix"
	}
	s := &SMTPSink{
		h: h, cfg: cfg,
		expect:      make(map[netstack.Addr]netstack.Addr),
		bannerCache: make(map[netstack.Addr]string),
	}
	reg := h.Sim().Obs().Reg
	s.sessions = reg.Counter("sink." + h.Name + ".sessions")
	s.dataTransfers = reg.Counter("sink." + h.Name + ".data_transfers")
	s.droppedConns = reg.Counter("sink." + h.Name + ".dropped_conns")
	if err := h.Listen(cfg.Port, s.accept); err != nil {
		return nil, err
	}
	if _, err := h.ListenUDP(cfg.Port+1, s.control); err != nil {
		return nil, err
	}
	return s, nil
}

// Expect records that flows from inmate are intended for target; exported
// for direct wiring in tests.
func (s *SMTPSink) Expect(inmate, target netstack.Addr) { s.expect[inmate] = target }

// control parses "EXPECT <inmate> <target>" datagrams from the containment
// server.
func (s *SMTPSink) control(src netstack.Addr, srcPort uint16, data []byte) {
	fields := strings.Fields(string(data))
	if len(fields) != 3 || fields[0] != "EXPECT" {
		return
	}
	inmate, err1 := netstack.ParseAddr(fields[1])
	target, err2 := netstack.ParseAddr(fields[2])
	if err1 != nil || err2 != nil {
		return
	}
	s.Expect(inmate, target)
}

func (s *SMTPSink) accept(c *host.Conn) {
	src, _ := c.RemoteAddr()
	if s.cfg.DropProb > 0 && s.h.Sim().Rand().Float64() < s.cfg.DropProb {
		s.DroppedConns++
		s.droppedConns.Inc()
		c.Abort()
		return
	}
	s.Sessions++
	s.sessions.Inc()

	eng := smtpx.Bind(c, s.cfg.Strictness)
	eng.OnMessage = func(env *smtpx.Envelope) *smtpx.Reply {
		s.DataTransfers++
		s.dataTransfers.Inc()
		if len(s.Envelopes) < maxKeptEnvelopes {
			s.Envelopes = append(s.Envelopes, keepEnvelope(env))
		}
		return nil
	}
	s.greet(eng, src)
}

// keepEnvelope copies env out of the engine's Envelope, whose buffers the
// engine reuses for the session's next message: its greeting, sender,
// recipients and body go into one buffer, each a full slice of its own
// piece.
func keepEnvelope(env *smtpx.Envelope) *smtpx.Envelope {
	n := len(env.Helo) + len(env.From) + len(env.Data)
	for _, r := range env.Rcpts {
		n += len(r)
	}
	buf := make([]byte, 0, n)
	piece := func(b []byte) []byte {
		buf = append(buf, b...)
		return buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	kept := &smtpx.Envelope{Helo: piece(env.Helo), From: piece(env.From), Rcpts: make([][]byte, len(env.Rcpts))}
	for i, r := range env.Rcpts {
		kept.Rcpts[i] = piece(r)
	}
	kept.Data = piece(env.Data)
	return kept
}

// greet delivers the banner, grabbing it from the intended target first
// when configured ("SMTP requests to a hitherto unseen host now caused the
// sink to actually connect out to the target SMTP server and obtain the
// greeting message", §7.1).
func (s *SMTPSink) greet(eng *smtpx.Engine, src netstack.Addr) {
	if !s.cfg.BannerGrab {
		eng.Greet(s.cfg.Banner)
		return
	}
	target, known := s.expect[src]
	if !known {
		eng.Greet(s.cfg.Banner)
		return
	}
	if banner, cached := s.bannerCache[target]; cached {
		eng.Greet(banner)
		return
	}
	grab := s.h.Dial(target, 25)
	done := false
	finish := func(banner string) {
		if done {
			return
		}
		done = true
		grab.Close()
		s.bannerCache[target] = banner
		eng.Greet(banner)
	}
	// The greeting is the first line; a line past maxBannerLine is no
	// banner.
	in := lineio.Reader{Max: maxBannerLine}
	grab.OnData = func(d []byte) {
		if !done {
			in.Feed(d, func(line []byte) { finish(strings.TrimRight(string(line), "\r")) },
				func() { finish(s.cfg.Banner) })
		}
	}
	grab.OnClose = func(err error) {
		if !done {
			finish(s.cfg.Banner) // target unreachable: fall back
		}
	}
	s.h.Sim().Schedule(5*time.Second, func() { finish(s.cfg.Banner) })
}

// String summarises activity.
func (s *SMTPSink) String() string {
	return fmt.Sprintf("sink.SMTPSink{%d sessions, %d DATA, %d dropped}",
		s.Sessions, s.DataTransfers, s.DroppedConns)
}

// maxBannerLine bounds a grabbed greeting line before its LF: RFC 5321
// limits a reply line to 512 octets.
const maxBannerLine = 512

// HTTPSink answers every request with an empty 200 and counts hits
// (sink.<host>.http_hits); click traffic is steered here so fraudulent
// clicks never reach real ad networks.
type HTTPSink struct {
	hits *obs.Counter
}

// NewHTTPSink installs the sink on h at port.
func NewHTTPSink(h *host.Host, port uint16) (*HTTPSink, error) {
	s := &HTTPSink{hits: h.Sim().Obs().Reg.Counter("sink." + h.Name + ".http_hits")}
	if err := h.Listen(port, s.accept); err != nil {
		return nil, err
	}
	return s, nil
}

var okNoBody = httpx.AppendResponse(nil, 200, nil)

// accept frames the connection's requests with an httpx.Parser and answers
// each with an empty 200. A stream the parser refuses — a head past its
// bound, a malformed request — closes the connection; the parser holds no
// more than that bound of what an inmate sends.
func (s *HTTPSink) accept(c *host.Conn) {
	p := &httpx.Parser{OnError: func(error) { c.Close() }}
	p.OnRequest = func() {
		s.hits.Inc()
		c.Write(okNoBody)
	}
	c.OnData = p.Feed
	c.OnPeerClose = c.Close
}
