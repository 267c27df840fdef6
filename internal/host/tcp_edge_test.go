package host

import (
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// rawPeer lets tests inject hand-crafted segments at a host, bypassing any
// well-behaved stack — for exercising reassembly and RST paths the
// in-order simulated network never produces naturally.
type rawPeer struct {
	port *netsim.Port
	mac  netstack.MAC
	addr netstack.Addr
	rx   []*netstack.Packet
	// onRx, if set, sees every packet but ARP requests as it arrives,
	// before it joins rx.
	onRx func(*netstack.Packet)
}

func newRawPeer(s *sim.Simulator, addr netstack.Addr) *rawPeer {
	p := &rawPeer{mac: netstack.MAC{2, 0, 0, 0, 9, 9}, addr: addr}
	p.port = netsim.NewPort(s, "raw", func(frame []byte) {
		pkt, err := netstack.ParseFrame(frame)
		if err != nil {
			return
		}
		// Answer ARP so the victim can deliver its segments.
		if pkt.ARP != nil && pkt.ARP.Op == netstack.ARPRequest && pkt.ARP.TargetIP == p.addr {
			reply := &netstack.Packet{
				Eth: netstack.Ethernet{Dst: pkt.ARP.SenderHW, Src: p.mac, EtherType: netstack.EtherTypeARP},
				ARP: &netstack.ARP{
					Op:       netstack.ARPReply,
					SenderHW: p.mac, SenderIP: p.addr,
					TargetHW: pkt.ARP.SenderHW, TargetIP: pkt.ARP.SenderIP,
				},
			}
			p.port.Send(reply.Marshal())
			return
		}
		if p.onRx != nil {
			p.onRx(pkt)
		}
		p.rx = append(p.rx, pkt)
	})
	return p
}

func (p *rawPeer) send(dstMAC netstack.MAC, dst netstack.Addr, t *netstack.TCP, payload []byte) {
	pkt := &netstack.Packet{
		Eth:     netstack.Ethernet{Dst: dstMAC, Src: p.mac, EtherType: netstack.EtherTypeIPv4},
		IP:      &netstack.IPv4{TTL: 64, Protocol: netstack.ProtoTCP, Src: p.addr, Dst: dst},
		TCP:     t,
		Payload: payload,
	}
	p.port.Send(pkt.Marshal())
}

// lastTCP returns the most recent TCP segment the peer received.
func (p *rawPeer) lastTCP() *netstack.Packet {
	for i := len(p.rx) - 1; i >= 0; i-- {
		if p.rx[i].TCP != nil {
			return p.rx[i]
		}
	}
	return nil
}

func rawSetup(t *testing.T) (*sim.Simulator, *Host, *rawPeer) {
	t.Helper()
	s := sim.New(5)
	sw := netsim.NewSwitch(s, "sw")
	h := New(s, "victim", netstack.MAC{2, 0, 0, 0, 0, 1})
	peer := newRawPeer(s, netstack.MustParseAddr("10.0.0.9"))
	netsim.Connect(sw.AddAccessPort("h", 10), h.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("p", 10), peer.port, 0)
	h.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	return s, h, peer
}

// handshake completes a raw three-way handshake from the peer's port 5555
// and returns (server ISN, client next seq).
func rawHandshake(t *testing.T, s *sim.Simulator, h *Host, peer *rawPeer, port uint16) (uint32, uint32) {
	t.Helper()
	return rawHandshakeFrom(t, s, h, peer, 5555, port)
}

// rawHandshakeFrom is rawHandshake from the peer's port srcPort.
func rawHandshakeFrom(t *testing.T, s *sim.Simulator, h *Host, peer *rawPeer, srcPort, port uint16) (uint32, uint32) {
	t.Helper()
	const iss = 1000
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: srcPort, DstPort: port, Seq: iss, Flags: netstack.FlagSYN, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	synack := peer.lastTCP()
	if synack == nil || synack.TCP.Flags&netstack.FlagSYN == 0 {
		t.Fatal("no SYN-ACK")
	}
	serverISN := synack.TCP.Seq
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: srcPort, DstPort: port, Seq: iss + 1, Ack: serverISN + 1,
		Flags: netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	return serverISN, iss + 1
}

func TestTCPOutOfOrderReassembly(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	h.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)

	seg := func(off int, payload string) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80,
			Seq: next + uint32(off), Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
		}, []byte(payload))
	}
	// Deliver the middle and tail before the head.
	seg(5, "WORLD")
	seg(10, "!")
	s.RunFor(time.Second)
	if len(got) != 0 {
		t.Fatalf("out-of-order data delivered early: %q", got)
	}
	seg(0, "HELLO")
	s.RunFor(time.Second)
	if string(got) != "HELLOWORLD!" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestTCPDuplicateSegmentsDeliveredOnce(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	h.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	for i := 0; i < 3; i++ {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
		}, []byte("ONCE"))
	}
	s.RunFor(time.Second)
	if string(got) != "ONCE" {
		t.Fatalf("duplicates delivered: %q", got)
	}
}

func TestTCPOverlappingSegmentTrimmed(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	h.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 1,
		Flags: netstack.FlagACK, Window: 65535,
	}, []byte("ABCDE"))
	// Retransmission covering old data plus two new bytes.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next + 3, Ack: serverISN + 1,
		Flags: netstack.FlagACK, Window: 65535,
	}, []byte("DEFG"))
	s.RunFor(time.Second)
	if string(got) != "ABCDEFG" {
		t.Fatalf("overlap handling produced %q", got)
	}
}

func TestTCPSimultaneousClose(t *testing.T) {
	s := sim.New(6)
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)

	var serverConn *Conn
	var serverClosed, clientClosed bool
	b.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnClose = func(err error) { serverClosed = err == nil }
	})
	c := a.Dial(b.Addr(), 80)
	c.OnClose = func(err error) { clientClosed = err == nil }
	s.RunFor(5 * time.Second) // both ends established
	if serverConn == nil {
		t.Fatal("server never accepted")
	}
	// Close both ends in the same simulator tick: FINs cross in flight
	// (the CLOSING state path).
	c.Close()
	serverConn.Close()
	s.RunFor(time.Minute)
	if !clientClosed || !serverClosed {
		t.Fatalf("simultaneous close: client=%v server=%v", clientClosed, serverClosed)
	}
	if len(a.conns) != 0 || len(b.conns) != 0 {
		t.Fatalf("conn leak: a=%d b=%d", len(a.conns), len(b.conns))
	}
}

// TestSimultaneousCloseResendsLostFIN: the host's FIN is lost and the
// peer's own FIN arrives, so the conn is in CLOSING with its FIN
// unacknowledged. The retransmission timeout must resend that FIN, and the
// peer's ACK of it must take the conn to TIME_WAIT and a clean close, not
// to a timeout with every byte acknowledged.
func TestSimultaneousCloseResendsLostFIN(t *testing.T) {
	var closeErr error
	closed := false
	r := ackSetup(t, func(c *Conn) {
		c.OnClose = func(err error) { closed, closeErr = true, err }
	})
	r.c.Close()
	r.s.RunFor(oneWay)
	r.want("the first FIN, lost on the way", seg{ackFIN, r.next, ""})
	r.send(0, netstack.FlagFIN, "")
	r.want("the peer's FIN", seg{ack, r.next + 1, ""})
	if r.c.State() != StateClosing {
		t.Fatalf("conn is %v after the peer's FIN, want CLOSING", r.c.State())
	}
	r.until(rtoInitial)
	r.want("at the retransmission timeout", seg{ackFIN, r.next + 1, ""})
	r.sendAck(1, 1, 0, "")
	if r.c.State() != StateTimeWait {
		t.Fatalf("conn is %v once its FIN is acknowledged, want TIME_WAIT", r.c.State())
	}
	r.until(timeWaitDuration)
	if !closed || closeErr != nil {
		t.Fatalf("closed %v with %v at the end of TIME_WAIT, want a clean close", closed, closeErr)
	}
}

func TestTCPHalfClose(t *testing.T) {
	s := sim.New(7)
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)

	// Server keeps sending after receiving the client's FIN (half-close):
	// classic request/response-stream shape.
	b.Listen(80, func(c *Conn) {
		c.OnPeerClose = func() {
			c.Write([]byte("late-response"))
			c.Close()
		}
	})
	var got []byte
	var closed bool
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() { c.Write([]byte("req")); c.Close() }
	c.OnData = func(d []byte) { got = append(got, d...) }
	c.OnClose = func(err error) { closed = err == nil }
	s.RunFor(time.Minute)
	if string(got) != "late-response" {
		t.Fatalf("half-close data lost: %q", got)
	}
	if !closed {
		t.Fatal("connection never finished")
	}
}

// TestTCPPartialOverlapStashDelivered pins the reassembly fix for stashes
// that only partially overlap later in-order data: an out-of-order segment
// at next+3 must still be delivered (trimmed) when the head segment covers
// next..next+5, instead of stranding in the ooo map forever.
func TestTCPPartialOverlapStashDelivered(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	var conn *Conn
	h.Listen(80, func(c *Conn) {
		conn = c
		c.OnData = func(d []byte) { got = append(got, d...) }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)

	seg := func(off int, payload string) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80,
			Seq: next + uint32(off), Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
		}, []byte(payload))
	}
	seg(3, "DEFGH") // out of order: stashed at next+3
	s.RunFor(100 * time.Millisecond)
	seg(0, "ABCDE") // head overlaps the stash by two bytes
	s.RunFor(100 * time.Millisecond)
	if string(got) != "ABCDEFGH" {
		t.Fatalf("partial-overlap stash mishandled: got %q, want %q", got, "ABCDEFGH")
	}
	if conn == nil || conn.stashed() != 0 {
		t.Fatalf("ooo map not drained: %d entries", conn.stashed())
	}
	if ack := peer.lastTCP(); ack == nil || ack.TCP.Ack != next+8 {
		t.Fatalf("final ACK %d, want %d", ack.TCP.Ack, next+8)
	}
}

// TestTCPOutOfOrderFINImmediateEOF pins the early-FIN fix: when a FIN
// arrives ahead of a lost data segment and the retransmit then fills the
// gap, the receiver must signal EOF as soon as the stream is complete —
// not a full RTO later when the peer resends the FIN.
func TestTCPOutOfOrderFINImmediateEOF(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	var peerClosed bool
	var conn *Conn
	h.Listen(80, func(c *Conn) {
		conn = c
		c.OnData = func(d []byte) { got = append(got, d...) }
		c.OnPeerClose = func() { peerClosed = true }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)

	// Tail of the stream plus FIN arrives first (head was "lost").
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next + 5, Ack: serverISN + 1,
		Flags: netstack.FlagACK | netstack.FlagPSH | netstack.FlagFIN, Window: 65535,
	}, []byte("WORLD"))
	s.RunFor(100 * time.Millisecond)
	if peerClosed {
		t.Fatal("EOF signalled with the stream still incomplete")
	}
	// The "retransmitted" head fills the gap; EOF must follow immediately,
	// well inside the 1s initial RTO.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 1,
		Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
	}, []byte("HELLO"))
	s.RunFor(100 * time.Millisecond)
	if string(got) != "HELLOWORLD" {
		t.Fatalf("reassembled %q", got)
	}
	if !peerClosed {
		t.Fatal("EOF delayed: out-of-order FIN was not processed when the gap filled")
	}
	if conn.State() != StateCloseWait {
		t.Fatalf("state %v after peer FIN, want CLOSE_WAIT", conn.State())
	}
	if ack := peer.lastTCP(); ack == nil || ack.TCP.Ack != next+11 {
		t.Fatalf("final ACK %d, want %d (data+FIN)", ack.TCP.Ack, next+11)
	}
}

// TestTCPStashedFINConsumedBeforeLaterStash pins the drain fix: when the
// gap fills up to a recorded out-of-order FIN while a segment beyond the
// FIN stays stashed, the FIN is consumed then, and acknowledged with the
// data, not left waiting for the peer to resend it.
func TestTCPStashedFINConsumedBeforeLaterStash(t *testing.T) {
	s, h, peer := rawSetup(t)
	var got []byte
	var peerClosed bool
	h.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
		c.OnPeerClose = func() { peerClosed = true }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	seg := func(off int, flags uint8, payload string) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: next + uint32(off), Ack: serverISN + 1,
			Flags: netstack.FlagACK | flags, Window: 65535,
		}, []byte(payload))
		s.RunFor(100 * time.Millisecond)
	}
	seg(5, netstack.FlagPSH|netstack.FlagFIN, "WORLD") // the FIN at next+10
	seg(20, netstack.FlagPSH, "AFTER")                 // beyond the FIN: stays stashed
	seg(0, netstack.FlagPSH, "HELLO")
	if string(got) != "HELLOWORLD" {
		t.Fatalf("reassembled %q", got)
	}
	if !peerClosed {
		t.Fatal("the stashed FIN the gap reached was not consumed")
	}
	if ack := peer.lastTCP(); ack == nil || ack.TCP.Ack != next+11 {
		t.Fatalf("final ACK %d, want %d (data+FIN)", ack.TCP.Ack, next+11)
	}
}

// TestTCPDuplicateFINSignaledOnce pins FIN idempotency: a retransmitted
// FIN must neither re-fire OnPeerClose nor consume another sequence
// number.
func TestTCPDuplicateFINSignaledOnce(t *testing.T) {
	s, h, peer := rawSetup(t)
	peerCloses := 0
	h.Listen(80, func(c *Conn) {
		c.OnPeerClose = func() { peerCloses++ }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	finSeg := func() {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH | netstack.FlagFIN, Window: 65535,
		}, []byte("DATA"))
	}
	finSeg()
	s.RunFor(100 * time.Millisecond)
	finSeg() // retransmission of the same data+FIN
	s.RunFor(100 * time.Millisecond)
	if peerCloses != 1 {
		t.Fatalf("OnPeerClose fired %d times, want 1", peerCloses)
	}
	if ack := peer.lastTCP(); ack == nil || ack.TCP.Ack != next+5 {
		t.Fatalf("ACK %d, want %d (duplicate FIN must not consume sequence space)", ack.TCP.Ack, next+5)
	}
}

// TestTCPCloseBeforeAcceptCompletes pins the SYN_RCVD close fix: an
// application closing a passively-opened connection before the handshake
// ACK arrives (host teardown does exactly this) queues a FIN, and that
// FIN must flush on the transition into ESTABLISHED — the handshake ACK
// cancels the retransmit timer, so before the fix nothing ever sent it.
func TestTCPCloseBeforeAcceptCompletes(t *testing.T) {
	s, h, peer := rawSetup(t)
	h.Listen(80, func(c *Conn) {})
	const iss = 1000
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: iss, Flags: netstack.FlagSYN, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	synack := peer.lastTCP()
	if synack == nil || synack.TCP.Flags&netstack.FlagSYN == 0 {
		t.Fatal("no SYN-ACK")
	}
	// Grab the embryonic connection and close it while still in SYN_RCVD.
	var conn *Conn
	for _, c := range h.conns {
		conn = c
	}
	if conn == nil || conn.State() != StateSynRcvd {
		t.Fatalf("expected a SYN_RCVD conn, got %v", conn)
	}
	conn.Close()
	// Handshake completes; the queued FIN must go out promptly.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: iss + 1, Ack: synack.TCP.Seq + 1,
		Flags: netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunFor(500 * time.Millisecond) // well under the 1s initial RTO
	last := peer.lastTCP()
	if last == nil || last.TCP.Flags&netstack.FlagFIN == 0 {
		t.Fatal("queued FIN never flushed after SYN_RCVD -> ESTABLISHED")
	}
	if conn.State() != StateFinWait1 {
		t.Fatalf("state %v, want FIN_WAIT_1", conn.State())
	}
}

// TestTCPWriteAndCloseBeforeSynAck pins the SYN_SENT close fix: data
// written and Close called before the SYN-ACK arrives must still be
// delivered and the connection closed cleanly, instead of being torn
// down with the buffered bytes discarded.
func TestTCPWriteAndCloseBeforeSynAck(t *testing.T) {
	s := sim.New(8)
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)

	var got []byte
	b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
		c.OnPeerClose = func() { c.Close() }
	})
	var closed, cleanly bool
	c := a.Dial(b.Addr(), 80)
	c.Write([]byte("early-request"))
	c.Close() // still in SYN_SENT, with data buffered
	c.OnClose = func(err error) { closed, cleanly = true, err == nil }
	s.RunFor(time.Minute)
	if string(got) != "early-request" {
		t.Fatalf("data written before SYN-ACK lost: got %q", got)
	}
	if !closed || !cleanly {
		t.Fatalf("close before SYN-ACK: closed=%v cleanly=%v", closed, cleanly)
	}
	if len(a.conns) != 0 || len(b.conns) != 0 {
		t.Fatalf("conn leak: a=%d b=%d", len(a.conns), len(b.conns))
	}
}

func TestTCPRSTForUnknownSegment(t *testing.T) {
	s, h, peer := rawSetup(t)
	// A stray ACK to a closed port must draw RST.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 81, Seq: 1, Ack: 2,
		Flags: netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	last := peer.lastTCP()
	if last == nil || last.TCP.Flags&netstack.FlagRST == 0 {
		t.Fatal("no RST for stray segment")
	}
	// RFC 793: RST for an ACK-bearing segment uses the segment's ACK as
	// its sequence number.
	if last.TCP.Seq != 2 {
		t.Fatalf("RST seq %d, want 2", last.TCP.Seq)
	}
}

// stashed is the number of out-of-order segments c holds.
func (c *Conn) stashed() int {
	if c.ooo == nil {
		return 0
	}
	return len(c.ooo.segs)
}

// A passive open is handed to the listener it arrived at, even if the port
// stops listening during the handshake; a handshake that dies in SYN_RCVD
// leaves nothing behind for its accept callback.
func TestAcceptOutlivesUnlistenDuringHandshake(t *testing.T) {
	s, h, peer := rawSetup(t)
	accepted := 0
	h.Listen(80, func(*Conn) { accepted++ })
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: 1000, Flags: netstack.FlagSYN, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	synack := peer.lastTCP()
	if synack == nil || synack.TCP.Flags&netstack.FlagSYN == 0 {
		t.Fatal("no SYN-ACK")
	}
	h.Unlisten(80)
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: 1001, Ack: synack.TCP.Seq + 1,
		Flags: netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	if accepted != 1 || len(h.accepting) != 0 {
		t.Fatalf("after Unlisten mid-handshake: accepted %d, %d pending accepts", accepted, len(h.accepting))
	}

	h.Listen(81, func(*Conn) { accepted++ })
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5556, DstPort: 81, Seq: 2000, Flags: netstack.FlagSYN, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	if len(h.accepting) != 1 {
		t.Fatalf("SYN_RCVD conn: %d pending accepts, want 1", len(h.accepting))
	}
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5556, DstPort: 81, Seq: 2001, Flags: netstack.FlagRST, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	if accepted != 1 || len(h.accepting) != 0 {
		t.Fatalf("after a reset in SYN_RCVD: accepted %d, %d pending accepts", accepted, len(h.accepting))
	}
}
