package host

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// The ACK rules. A segment the app sends from OnData or OnPeerClose
// carries the ACK for what it answers, and no pure ACK repeats it (RFC
// 1122 4.2.3.2). An app that sends nothing gets its ACK delayedACK after
// the data arrived (RFC 9293 3.8.6.3), unless 2*MSS arrived since the last
// ACK, the segment carries a FIN, lies beyond rcvNxt, repeats old bytes or
// fills a gap in the stash: those are ACKed at once. An active open's
// handshake ACK rides what OnConnect sends, and goes out alone otherwise.

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
	r.peer.send(r.h.MAC(), r.h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: r.next + off, Ack: r.serverISN + 1 + ackOff,
		Flags: netstack.FlagACK | flags, Window: 65535,
	}, []byte(payload))
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

// A reply from OnData acknowledges only the bytes delivered so far: the
// stashed bytes the drain then delivers still owe their ACK.
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
	r.want("head filling the gap", seg{ackPSH, r.next + 5, "OK"}, seg{ack, r.next + 10, ""})
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
