package host

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// The ACK rules. What the app writes from OnData or OnPeerClose, and a
// Close there, leave once the callback returns, as few segments as MSS
// allows with the FIN on the last, and they carry the ACK for what they
// answer: no pure ACK repeats it (RFC 1122 4.2.3.2). An app that sends
// nothing gets its ACK delayedACK after the data arrived (RFC 9293
// 3.8.6.3), whether or not its own data is in flight, unless 2*MSS arrived
// since the last ACK, the segment carries a FIN, lies beyond rcvNxt,
// repeats old bytes or fills a gap in the stash: those are ACKed at once.
// At once means after the last of the conn's segments landing at that
// instant: a burst draws one ACK, and another conn's segments defer
// nothing. A hold in place of the retransmission timeout leaves its
// deadline alone, and when the deadline passes during the hold the
// timeout fires as the hold ends. An active open's handshake ACK rides
// what OnConnect sends, and goes out alone otherwise.

// ackRig is one raw connection accepted on port 80, past its handshake.
type ackRig struct {
	t         *testing.T
	s         *sim.Simulator
	h         *Host
	peer      *rawPeer
	c         *Conn  // the accepted conn
	next      uint32 // the peer's first data sequence number
	serverISN uint32
	at        time.Duration // when the last segment sent reached the host
}

// oneWay is the peer-to-host delay: two links through the switch.
const oneWay = 2 * netsim.DefaultLinkLatency

// ackSetup accepts one raw connection on port 80 with app as its callback
// setup, completes the handshake, and forgets what the peer saw so far.
func ackSetup(t *testing.T, app func(c *Conn)) *ackRig {
	t.Helper()
	s, h, peer := rawSetup(t)
	r := &ackRig{t: t, s: s, h: h, peer: peer}
	h.Listen(80, func(c *Conn) {
		r.c = c
		app(c)
	})
	r.serverISN, r.next = rawHandshake(t, s, h, peer, 80)
	peer.rx = nil
	return r
}

// sendAck injects a peer segment at offset off of the peer's stream,
// acknowledging the host's bytes up to ackOff, and runs the simulator
// until everything the host answered at once has reached the peer.
func (r *ackRig) sendAck(off, ackOff uint32, flags uint8, payload string) {
	r.burst(ackOff, flags, peerSeg{off, payload})
}

// peerSeg is a segment of the peer's: its offset in the peer's stream and
// its bytes.
type peerSeg struct {
	off     uint32
	payload string
}

// burst injects peer segments that land at the host at one instant, each
// acknowledging the host's bytes up to ackOff, and runs the simulator until
// everything the host answered at once has reached the peer.
func (r *ackRig) burst(ackOff uint32, flags uint8, segs ...peerSeg) {
	for _, sg := range segs {
		r.peer.send(r.h.MAC(), r.h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: r.next + sg.off, Ack: r.serverISN + 1 + ackOff,
			Flags: netstack.FlagACK | flags, Window: 65535,
		}, []byte(sg.payload))
	}
	r.at = r.s.Now() + oneWay
	r.until(0)
}

// send is sendAck acknowledging nothing the host sent.
func (r *ackRig) send(off uint32, flags uint8, payload string) { r.sendAck(off, 0, flags, payload) }

// until runs the simulator until what the host sent up to d after the last
// segment reached it has reached the peer.
func (r *ackRig) until(d time.Duration) { r.s.RunUntil(r.at + d + oneWay) }

// answered returns the TCP segments the peer received since the last
// call and forgets them.
func (r *ackRig) answered() []seg {
	var out []seg
	for _, p := range r.peer.rx {
		if p.TCP != nil {
			out = append(out, seg{p.TCP.Flags, p.TCP.Ack, string(p.Payload)})
		}
	}
	r.peer.rx = nil
	return out
}

// want fails unless the host sent exactly want since the last call.
func (r *ackRig) want(what string, want ...seg) {
	r.t.Helper()
	got := r.answered()
	if len(got) != len(want) {
		r.t.Fatalf("%s: host sent %+v, want %+v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			r.t.Fatalf("%s: host sent %+v, want %+v", what, got, want)
		}
	}
}

// seg is what the tests compare of a host-sent segment.
type seg struct {
	flags   uint8
	ack     uint32
	payload string
}

const (
	ack    = netstack.FlagACK
	ackPSH = netstack.FlagACK | netstack.FlagPSH
	ackFIN = netstack.FlagACK | netstack.FlagFIN
)

func silent(c *Conn) { c.OnData = func([]byte) {} }

func TestEchoReplyCarriesTheACK(t *testing.T) {
	r := ackSetup(t, func(c *Conn) { c.OnData = c.Write })
	r.send(0, netstack.FlagPSH, "PING")
	r.want("echoed request", seg{ackPSH, r.next + 4, "PING"})
	r.until(delayedACK)
	r.want("at the delay")
}

// A silent receiver's ACK waits exactly delayedACK, goes out once, and
// its firing counts no retransmission.
func TestSilentAppGetsOnePureACK(t *testing.T) {
	r := ackSetup(t, silent)
	r.send(0, netstack.FlagPSH, "PING")
	r.want("at arrival")
	r.until(delayedACK - time.Microsecond)
	r.want("1 µs before the delay")
	r.until(delayedACK)
	r.want("at the delay", seg{ack, r.next + 4, ""})
	if r.c.retries != 0 {
		t.Errorf("the delayed ACK raised retries to %d", r.c.retries)
	}
	r.until(time.Minute)
	r.want("a minute on")
	if r.c.State() != StateEstablished {
		t.Errorf("conn is %v a minute on, want ESTABLISHED", r.c.State())
	}
}

// 2*MSS of new data since the last ACK is ACKed at once, whether it came
// as two full segments or as three smaller ones; an ACK sent at once also
// ends the hold, so no ACK follows at the delay.
func TestTwoSegmentsOfDataAreACKedAtOnce(t *testing.T) {
	for _, size := range []uint32{MSS, 1000} {
		r := ackSetup(t, silent)
		var off uint32
		for off+size < 2*MSS {
			r.send(off, netstack.FlagPSH, strings.Repeat("x", int(size)))
			r.want("held segment")
			off += size
		}
		r.send(off, netstack.FlagPSH, strings.Repeat("x", int(size)))
		r.want("segment reaching 2*MSS", seg{ack, r.next + off + size, ""})
		r.until(time.Minute)
		r.want("a minute on")
		if r.c.State() != StateEstablished {
			t.Errorf("size %d: conn is %v a minute on, want ESTABLISHED", size, r.c.State())
		}
	}
}

func TestRetransmittedFINIsReACKed(t *testing.T) {
	r := ackSetup(t, func(c *Conn) {})
	r.send(0, netstack.FlagFIN, "")
	r.want("FIN", seg{ack, r.next + 1, ""})
	r.send(0, netstack.FlagFIN, "")
	r.want("retransmitted FIN", seg{ack, r.next + 1, ""})
}

// A FIN is ACKed at once, and the ACK covers the held data before it.
func TestFINAfterHeldDataIsACKedAtOnce(t *testing.T) {
	r := ackSetup(t, silent)
	r.send(0, netstack.FlagPSH, "DATA")
	r.want("held data")
	r.send(4, netstack.FlagFIN, "")
	r.want("FIN", seg{ack, r.next + 5, ""})
	r.until(time.Second)
	r.want("after the FIN")
}

func TestCloseOnPeerCloseFINCarriesTheACK(t *testing.T) {
	r := ackSetup(t, func(c *Conn) { c.OnPeerClose = c.Close })
	r.send(0, netstack.FlagFIN, "")
	r.want("FIN answered by Close", seg{ackFIN, r.next + 1, ""})
}

// An out-of-order segment draws a duplicate ACK at once, and so does the
// segment that fills the gap, in part or whole (RFC 5681 4.2).
func TestOutOfOrderAndGapFillAreACKedAtOnce(t *testing.T) {
	r := ackSetup(t, silent)
	r.send(0, netstack.FlagPSH, "AB")
	r.want("held head")
	r.send(10, netstack.FlagPSH, "KL")
	r.want("out-of-order tail", seg{ack, r.next + 2, ""})
	r.send(2, netstack.FlagPSH, "CDEF")
	r.want("part of the gap", seg{ack, r.next + 6, ""})
	r.send(6, netstack.FlagPSH, "GHIJ")
	r.want("rest of the gap", seg{ack, r.next + 12, ""})
	r.send(12, netstack.FlagPSH, "MN")
	r.want("in order again")
	r.until(delayedACK)
	r.want("at the delay", seg{ack, r.next + 14, ""})
}

// A reply written in OnData leaves once the drain of the stash it unblocked
// has delivered the stashed bytes too, and carries the ACK for all of them.
func TestStashDrainedAfterReplyIsACKed(t *testing.T) {
	r := ackSetup(t, func(c *Conn) {
		replied := false
		c.OnData = func([]byte) {
			if !replied {
				replied = true
				c.Write([]byte("OK"))
			}
		}
	})
	r.send(5, netstack.FlagPSH, "WORLD")
	r.want("out-of-order tail", seg{ack, r.next, ""})
	r.send(0, netstack.FlagPSH, "HELLO")
	r.want("head filling the gap", seg{ackPSH, r.next + 10, "OK"})
}

// The peer's next request acknowledges the host's reply, which empties the
// send queue and stops the retransmission timeout; the request's own ACK
// is still held, and goes out at the delay. The reply is not resent.
func TestHeldACKSurvivesTheACKThatEmptiesTheQueue(t *testing.T) {
	r := ackSetup(t, func(c *Conn) {
		c.OnData = func(d []byte) {
			if string(d) == "REQ1" {
				c.Write([]byte("RESP"))
			}
		}
	})
	r.send(0, netstack.FlagPSH, "REQ1")
	r.want("first request", seg{ackPSH, r.next + 4, "RESP"})
	r.sendAck(4, 4, netstack.FlagPSH, "REQ2")
	r.want("second request, acknowledging the reply")
	r.until(delayedACK)
	r.want("at the delay", seg{ack, r.next + 8, ""})
	r.until(time.Minute)
	r.want("a minute on")
}

// A Write inside the delay carries the held ACK, and the delay's timer
// does not fire after it.
func TestWriteInsideTheDelayCarriesTheACK(t *testing.T) {
	r := ackSetup(t, silent)
	r.send(0, netstack.FlagPSH, "PING")
	r.until(delayedACK / 2)
	r.want("half the delay")
	r.c.Write([]byte("PONG"))
	r.s.RunFor(oneWay)
	r.want("write inside the delay", seg{ackPSH, r.next + 4, "PONG"})
	r.until(delayedACK)
	r.want("at the delay")
	r.sendAck(4, 4, 0, "")
	r.until(time.Minute)
	r.want("a minute on")
	if r.c.retries != 0 {
		t.Errorf("retries = %d, want 0", r.c.retries)
	}
}

// dialAnswered has the host dial the raw peer with onConnect as the conn's
// OnConnect, answers the SYN with a SYN-ACK whose sequence number is irs,
// and returns what the host sent in answer, all of which must leave at the
// SYN-ACK's arrival.
func dialAnswered(t *testing.T, irs uint32, onConnect func(c *Conn)) []seg {
	t.Helper()
	s, h, peer := rawSetup(t)
	c := h.Dial(peer.addr, 5555)
	c.OnConnect = func() { onConnect(c) }
	s.RunFor(100 * time.Millisecond)
	syn := peer.lastTCP()
	if syn == nil || syn.TCP.Flags != netstack.FlagSYN {
		t.Fatal("the host sent no SYN")
	}
	var got []seg
	arrival := s.Now() + oneWay
	peer.onRx = func(p *netstack.Packet) {
		if p.TCP == nil {
			return
		}
		if sent := s.Now() - oneWay; sent != arrival {
			t.Errorf("%+v left at %v, want the SYN-ACK's arrival at %v", p.TCP, sent, arrival)
		}
		got = append(got, seg{p.TCP.Flags, p.TCP.Ack, string(p.Payload)})
	}
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: syn.TCP.SrcPort, Seq: irs, Ack: syn.TCP.Seq + 1,
		Flags: netstack.FlagSYN | netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunUntil(arrival + oneWay)
	return got
}

// An active open's handshake ACK rides what OnConnect sends; a pure ACK
// goes out, at the SYN-ACK's arrival, only if OnConnect sends nothing but
// a reset, which needs the ACK before it so that the peer, still in
// SYN_RCVD, accepts the conn the reset then ends.
func TestActiveOpenHandshakeACK(t *testing.T) {
	const irs = 7000
	for _, tc := range []struct {
		name      string
		onConnect func(c *Conn)
		want      []seg
	}{
		{"writes", func(c *Conn) { c.Write([]byte("HELO")) }, []seg{{ackPSH, irs + 1, "HELO"}}},
		{"silent", func(c *Conn) {}, []seg{{ack, irs + 1, ""}}},
		{"closes", func(c *Conn) { c.Close() }, []seg{{ackFIN, irs + 1, ""}}},
		{"aborts", func(c *Conn) { c.Abort() }, []seg{{ack, irs + 1, ""}, {netstack.FlagRST | netstack.FlagACK, irs + 1, ""}}},
	} {
		if got := dialAnswered(t, irs, tc.onConnect); !slices.Equal(got, tc.want) {
			t.Errorf("OnConnect %s: host sent %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// full is an MSS of the peer's stream starting at off.
func full(off uint32) peerSeg { return peerSeg{off, strings.Repeat("x", MSS)} }

// sentAt records when each segment the peer receives left the host.
func (r *ackRig) sentAt() *[]time.Duration {
	var at []time.Duration
	r.peer.onRx = func(p *netstack.Packet) {
		if p.TCP != nil {
			at = append(at, r.s.Now()-oneWay)
		}
	}
	return &at
}

// A 4*MSS burst landing at one instant draws one ACK, at that instant,
// covering all four segments: the 2*MSS rule alone would answer the second
// and the fourth.
func TestBurstDrawsOneACK(t *testing.T) {
	r := ackSetup(t, silent)
	at := r.sentAt()
	r.burst(0, netstack.FlagPSH, full(0), full(MSS), full(2*MSS), full(3*MSS))
	r.want("4*MSS burst", seg{ack, r.next + 4*MSS, ""})
	if !slices.Equal(*at, []time.Duration{r.at}) {
		t.Errorf("the ACK left at %v, want the burst's landing at %v", *at, r.at)
	}
	r.until(time.Minute)
	r.want("a minute on")
}

// Bursts on two conns, interleaved at one instant, draw one ACK per conn,
// and the first conn's leaves behind its own last segment, before the
// other conn's last lands: one conn's arrivals defer no other's ACK.
func TestBurstsOnTwoConnsAreACKedApart(t *testing.T) {
	r := ackSetup(t, silent)
	isn2, next2 := rawHandshakeFrom(t, r.s, r.h, r.peer, 5556, 80)
	r.peer.rx = nil
	for i := uint32(0); i < 4; i++ {
		for _, sp := range []struct {
			port      uint16
			isn, next uint32
		}{{5555, r.serverISN, r.next}, {5556, isn2, next2}} {
			r.peer.send(r.h.MAC(), r.h.Addr(), &netstack.TCP{
				SrcPort: sp.port, DstPort: 80, Seq: sp.next + i*MSS, Ack: sp.isn + 1,
				Flags: ackPSH, Window: 65535,
			}, []byte(strings.Repeat("x", MSS)))
		}
	}
	r.at = r.s.Now() + oneWay
	r.until(0)
	var got []string
	for _, p := range r.peer.rx {
		got = append(got, fmt.Sprintf("%d:%d:%#x", p.TCP.DstPort, p.TCP.Ack, p.TCP.Flags))
	}
	want := []string{
		fmt.Sprintf("5555:%d:%#x", r.next+4*MSS, ack),
		fmt.Sprintf("5556:%d:%#x", next2+4*MSS, ack),
	}
	if !slices.Equal(got, want) {
		t.Errorf("host sent %v, want %v", got, want)
	}
}

// replyOnce answers the request "REQ1" with "RESP" and nothing else.
func replyOnce(c *Conn) {
	c.OnData = func(d []byte) {
		if string(d) == "REQ1" {
			c.Write([]byte("RESP"))
		}
	}
}

// A conn whose reply is in flight holds the ACK for less than 2*MSS of new
// data like an idle one: no pure ACK at the arrival, one at the delay. The
// peer's ACK of the reply then leaves nothing to resend.
func TestHoldWhileReplyInFlight(t *testing.T) {
	r := ackSetup(t, replyOnce)
	r.send(0, netstack.FlagPSH, "REQ1")
	r.want("request", seg{ackPSH, r.next + 4, "RESP"})
	r.send(4, netstack.FlagPSH, "MORE")
	r.want("data not acknowledging the reply")
	r.until(delayedACK - time.Microsecond)
	r.want("1 µs before the delay")
	r.until(delayedACK)
	r.want("at the delay", seg{ack, r.next + 8, ""})
	r.sendAck(8, 4, 0, "")
	r.until(time.Minute)
	r.want("a minute on")
}

// A hold in place of the retransmission timeout leaves its deadline alone:
// with the peer's ACK of the reply lost, the held ACK goes at the delay and
// the reply is resent rto() after its first sending.
func TestHoldKeepsTheRTODeadline(t *testing.T) {
	r := ackSetup(t, replyOnce)
	at := r.sentAt()
	r.burst(0, netstack.FlagPSH, peerSeg{0, "REQ1"}, peerSeg{4, "MORE"})
	r.want("request and more data at one instant", seg{ackPSH, r.next + 4, "RESP"})
	rto := r.c.rto()
	r.until(rto - time.Microsecond)
	r.want("held ACK", seg{ack, r.next + 8, ""})
	r.until(rto)
	r.want("RTO", seg{ackPSH, r.next + 8, "RESP"})
	if want := []time.Duration{r.at, r.at + delayedACK, r.at + rto}; !slices.Equal(*at, want) {
		t.Errorf("the host sent at %v, want %v", *at, want)
	}
	if r.c.retries != 1 {
		t.Errorf("retries = %d after one timeout, want 1", r.c.retries)
	}
}

// The peer's ACK of the whole reply, arriving while an ACK is held, ends
// the retransmission timeout the hold displaced: the held ACK goes at the
// delay, nothing is resent, and the conn lives on.
func TestACKInsideAHoldStopsTheRTO(t *testing.T) {
	r := ackSetup(t, replyOnce)
	r.send(0, netstack.FlagPSH, "REQ1")
	r.want("request", seg{ackPSH, r.next + 4, "RESP"})
	r.send(4, netstack.FlagPSH, "MORE")
	r.sendAck(8, 4, 0, "")
	r.until(time.Minute)
	r.want("a minute on", seg{ack, r.next + 8, ""})
	if r.c.retries != 0 || r.c.State() != StateEstablished {
		t.Errorf("retries = %d, state %v: a timeout fired with nothing in flight", r.c.retries, r.c.State())
	}
}

// An ACK of part of the reply, arriving while an ACK is held, restarts the
// retransmission timeout the hold displaced (RFC 6298 5.3): the rest of
// the reply is resent rto() after that ACK.
func TestPartialACKInsideAHoldRestartsTheRTO(t *testing.T) {
	r := ackSetup(t, replyOnce)
	at := r.sentAt()
	r.send(0, netstack.FlagPSH, "REQ1")
	sent := r.at
	r.send(4, netstack.FlagPSH, "MORE")
	held := r.at
	r.sendAck(8, 2, 0, "")
	rto := r.c.rto()
	r.until(rto)
	r.want("reply, held ACK, resent rest", seg{ackPSH, r.next + 4, "RESP"}, seg{ack, r.next + 8, ""}, seg{ackPSH, r.next + 8, "SP"})
	if want := []time.Duration{sent, held + delayedACK, r.at + rto}; !slices.Equal(*at, want) {
		t.Errorf("the host sent at %v, want %v", *at, want)
	}
}

// A conn reset while its held ACK has the timer leaves no retransmission
// timeout behind on the host.
func TestResetInsideAHoldDropsTheRTO(t *testing.T) {
	r := ackSetup(t, replyOnce)
	r.send(0, netstack.FlagPSH, "REQ1")
	r.send(4, netstack.FlagPSH, "MORE")
	if len(r.h.rtoDue) != 1 {
		t.Fatalf("%d timeouts kept aside during the hold, want 1", len(r.h.rtoDue))
	}
	r.send(8, netstack.FlagRST, "")
	if r.c.State() != StateClosed || len(r.h.rtoDue) != 0 {
		t.Errorf("state %v, %d timeouts kept aside after the reset, want CLOSED and none", r.c.State(), len(r.h.rtoDue))
	}
}

// Holds that follow one another do not put the retransmission timeout off:
// with the peer acknowledging none of the reply and sending a little data every 30 ms from
// mid-RTO on, a hold covers the deadline, and the reply is resent when
// that hold ends, within delayedACK of the deadline, and only then.
func TestHoldsInARowDelayTheRTOByAtMostTheDelay(t *testing.T) {
	r := ackSetup(t, replyOnce)
	r.send(0, netstack.FlagPSH, "REQ1")
	r.want("request", seg{ackPSH, r.next + 4, "RESP"})
	sent, rto := r.at, r.c.rto()
	var resent []time.Duration
	r.peer.onRx = func(p *netstack.Packet) {
		if p.TCP != nil && string(p.Payload) == "RESP" {
			resent = append(resent, r.s.Now()-oneWay)
		}
	}
	for off := uint32(4); r.s.Now() < sent+3*rto/2; off += 2 {
		r.s.RunUntil(sent + rto/2 + time.Duration(off-4)/2*30*time.Millisecond - oneWay)
		r.peer.send(r.h.MAC(), r.h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: r.next + off, Ack: r.serverISN + 1,
			Flags: ackPSH, Window: 65535,
		}, []byte("ab"))
	}
	if len(resent) != 1 || resent[0] <= sent+rto || resent[0] > sent+rto+delayedACK {
		t.Errorf("the reply sent at %v was resent at %v, want once in (%v, %v]", sent, resent, sent+rto, sent+rto+delayedACK)
	}
}

// What a callback writes, and a Close it makes, leave when it returns: two
// reply lines as one segment, a Close behind them as its FIN, and an Abort
// behind them after them.
func TestCallbackSendsLeaveWhenItReturns(t *testing.T) {
	const lines = "250 a\r\n250 b\r\n"
	for _, tc := range []struct {
		name string
		then func(c *Conn)
		want []uint8 // the flags of what the host sends, each with the ACK of the request
	}{
		{"writes", func(c *Conn) {}, []uint8{ackPSH}},
		{"closes", (*Conn).Close, []uint8{ackPSH | netstack.FlagFIN}},
		{"aborts", (*Conn).Abort, []uint8{ackPSH, netstack.FlagRST | netstack.FlagACK}},
	} {
		r := ackSetup(t, func(c *Conn) {
			c.OnData = func([]byte) {
				c.Write([]byte("250 a\r\n"))
				c.Write([]byte("250 b\r\n"))
				tc.then(c)
			}
		})
		r.send(0, netstack.FlagPSH, "A\nB\n")
		want := []seg{{tc.want[0], r.next + 4, lines}}
		if len(tc.want) > 1 {
			want = append(want, seg{tc.want[1], r.next + 4, ""})
		}
		if got := r.answered(); !slices.Equal(got, want) {
			t.Errorf("OnData %s: host sent %+v, want %+v", tc.name, got, want)
		}
	}
}

// A callback's writes and Close on another of the host's conns wait for it
// too: a relay that forwards what one conn got to another, then closes
// that one, sends the bytes and the FIN as one segment.
func TestCallbackSendsOnAnotherConnLeaveWhenItReturns(t *testing.T) {
	var conns []*Conn
	r := ackSetup(t, func(c *Conn) {
		conns = append(conns, c)
		c.OnData = func(d []byte) {
			if len(conns) == 2 && c == conns[1] {
				conns[0].Write(d)
				conns[0].Close()
			}
		}
	})
	_, next2 := rawHandshakeFrom(t, r.s, r.h, r.peer, 5556, 80)
	r.peer.rx = nil
	r.peer.send(r.h.MAC(), r.h.Addr(), &netstack.TCP{
		SrcPort: 5556, DstPort: 80, Seq: next2, Ack: conns[1].sndNxt, Flags: ackPSH, Window: 65535,
	}, []byte("RELAY"))
	r.at = r.s.Now() + oneWay
	r.until(0)
	var got []seg
	for _, p := range r.peer.rx {
		if p.TCP.DstPort == 5555 {
			got = append(got, seg{p.TCP.Flags, p.TCP.Ack, string(p.Payload)})
		}
	}
	if want := []seg{{ackPSH | netstack.FlagFIN, r.next, "RELAY"}}; !slices.Equal(got, want) {
		t.Errorf("the relayed conn sent %+v, want %+v", got, want)
	}
}
