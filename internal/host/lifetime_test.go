package host

import (
	"bytes"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// A Conn's send buffer is taken from its domain's frame list and goes back
// only when nothing more can be sent from it: once the FIN is acknowledged,
// or when the conn is destroyed. Its one timer also ends TIME_WAIT. These
// tests pin both, with released buffers poisoned (netsim.PoisonByte).

// TestSendBufferHeldUntilFINAcked drops a conn's first data segment: the
// go-back-N retransmission a second later must carry the written bytes,
// which a buffer released while they were unacknowledged would have
// poisoned. After the FIN is acknowledged the conn holds no send buffer.
func TestSendBufferHeldUntilFINAcked(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	var got []byte
	if err := b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	dgram, err := b.ListenUDP(2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := a.Dial(b.Addr(), 80)
	s.RunFor(time.Second)
	if c.State() != StateEstablished {
		t.Fatalf("state %v before the write", c.State())
	}

	want := bytes.Repeat([]byte("go-back-N resends these "), 8)
	a.NIC().Loss = 1 // the segment written next is dropped
	c.Write(want)
	s.RunFor(time.Millisecond)
	a.NIC().Loss = 0
	if c.sndBase == nil || c.sndNxt == c.sndUna {
		t.Fatal("the written bytes are not in flight from a send buffer")
	}
	// Frames of the buffer's class cycle through the list meanwhile.
	for i := 0; i < 8; i++ {
		dgram.SendTo(a.Addr(), 9, bytes.Repeat([]byte{byte(i)}, len(want)))
	}
	s.RunFor(2 * time.Second)
	if !bytes.Equal(got, want) {
		t.Fatalf("after the retransmission the peer has %q, want %q", got[:min(len(got), 32)], want[:32])
	}

	c.Close()
	s.RunFor(100 * time.Millisecond)
	if c.State() != StateFinWait2 {
		t.Fatalf("state %v after the FIN, want FIN_WAIT_2", c.State())
	}
	if c.sndBase != nil || c.sndOff != 0 || c.sndEnd != 0 {
		t.Errorf("FIN acknowledged, but the conn still holds a %d-byte send buffer", cap(c.sndBase))
	}
}

// TestTimeWaitEndsOnTime: TIME_WAIT ends exactly timeWaitDuration after it
// is entered, and the peer's retransmitted FIN, which the conn acknowledges
// again, does not extend it.
func TestTimeWaitEndsOnTime(t *testing.T) {
	s, h, peer := rawSetup(t)
	var conn *Conn
	var enteredAt, closedAt time.Duration
	var closeErr error
	if err := h.Listen(80, func(c *Conn) {
		conn = c
		c.OnPeerClose = func() { enteredAt = s.Now() }
		c.OnClose = func(err error) { closedAt, closeErr = s.Now(), err }
	}); err != nil {
		t.Fatal(err)
	}
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	conn.Close()
	s.RunFor(100 * time.Millisecond)
	fin := &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 2,
		Flags: netstack.FlagACK | netstack.FlagFIN, Window: 65535,
	}
	peer.send(h.MAC(), h.Addr(), fin, nil)
	s.RunFor(100 * time.Millisecond)
	if conn.State() != StateTimeWait || enteredAt == 0 {
		t.Fatalf("state %v, want TIME_WAIT", conn.State())
	}
	s.RunFor(timeWaitDuration / 2)
	peer.rx = nil
	peer.send(h.MAC(), h.Addr(), fin, nil)
	s.RunFor(100 * time.Millisecond)
	if ack := peer.lastTCP(); ack == nil || ack.TCP.Flags != netstack.FlagACK || ack.TCP.Ack != next+1 {
		t.Fatalf("the retransmitted FIN drew %v, want its ACK", ack)
	}
	s.RunFor(time.Minute)
	if closeErr != nil || closedAt-enteredAt != timeWaitDuration {
		t.Fatalf("TIME_WAIT ended %v after it began (err %v), want exactly %v", closedAt-enteredAt, closeErr, timeWaitDuration)
	}
}

// TestConnCycleAllocs pins the allocations of one warmed connection cycle
// between two hosts: Dial, Write, the echo, Close, and TIME_WAIT to its end.
// The Conns on both sides, their ports' table entries and the echo server's
// callbacks are what is left; frames and send buffers come from the list.
func TestConnCycleAllocs(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	echoServer(b, 80)
	msg := []byte("one request, echoed")
	var echoed int
	cycle := func() {
		c := a.Dial(b.Addr(), 80)
		c.OnConnect = func() { c.Write(msg) }
		c.OnData = func(d []byte) {
			if echoed += len(d); echoed == len(msg) {
				c.Close()
			}
		}
		s.RunFor(time.Minute)
		if echoed != len(msg) || len(a.conns) != 0 || len(b.conns) != 0 {
			t.Fatalf("cycle echoed %d of %d bytes, left %d+%d conns", echoed, len(msg), len(a.conns), len(b.conns))
		}
		echoed = 0
	}
	for i := 0; i < 20; i++ {
		cycle()
	}
	const ceiling = 8
	if allocs := testing.AllocsPerRun(50, cycle); allocs > ceiling {
		t.Errorf("one connection cycle: %v allocs, ceiling %d", allocs, ceiling)
	}
}

// TestOOOStashIsBounded floods one conn with 10,000 distinct out-of-order
// segments, in and beyond the window: the stash keeps at most
// maxOOOSegments of them, none starting beyond the window, and the stream
// still reassembles once the hole is filled.
func TestOOOStashIsBounded(t *testing.T) {
	s, h, peer := rawSetup(t)
	var conn *Conn
	var got []byte
	if err := h.Listen(80, func(c *Conn) {
		conn = c
		c.OnData = func(d []byte) { got = append(got, d...) }
	}); err != nil {
		t.Fatal(err)
	}
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	seg := func(off uint32, payload []byte) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: 5555, DstPort: 80, Seq: next + off, Ack: serverISN + 1,
			Flags: netstack.FlagACK | netstack.FlagPSH, Window: 65535,
		}, payload)
	}
	seg(DefaultWindow, []byte("beyond the window"))
	s.RunFor(time.Millisecond)
	if conn.stashed() != 0 {
		t.Fatalf("a segment starting beyond the window was stashed")
	}
	for i := uint32(0); i < 10000; i++ {
		seg(1+i*7, []byte{byte(i)})
		if i%100 == 99 {
			s.RunFor(time.Millisecond)
			if conn.stashed() > maxOOOSegments {
				t.Fatalf("after %d segments the stash holds %d, cap %d", i+1, conn.stashed(), maxOOOSegments)
			}
		}
	}
	for s := range conn.ooo.segs {
		if off := s - next; off >= DefaultWindow {
			t.Fatalf("stashed a segment %d bytes ahead, beyond the window", off)
		}
	}
	if conn.stashed() != maxOOOSegments {
		t.Fatalf("the stash holds %d segments, want it full at %d", conn.stashed(), maxOOOSegments)
	}
	seg(0, []byte("0"))
	s.RunFor(time.Millisecond)
	if len(got) != 2 || got[0] != '0' || got[1] != 0 {
		t.Fatalf("the filled hole delivered %q, want \"0\\x00\"", got)
	}
}
