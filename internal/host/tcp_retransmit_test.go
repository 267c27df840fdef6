package host

import (
	"errors"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// warmARP primes both hosts' ARP caches with a UDP round so subsequent
// loss windows only affect TCP segments, never address resolution.
func warmARP(t *testing.T, s *sim.Simulator, a, b *Host) {
	t.Helper()
	sock, err := a.ListenUDP(40000, nil)
	if err != nil {
		t.Fatal(err)
	}
	heard := false
	if _, err := b.ListenUDP(40001, func(netstack.Addr, uint16, []byte) { heard = true }); err != nil {
		t.Fatal(err)
	}
	sock.SendTo(b.Addr(), 40001, []byte("warm"))
	s.Run()
	if !heard {
		t.Fatal("ARP warm-up ping not delivered")
	}
}

// TestTCPSYNLossRetransmit drops the initial SYN and checks the connection
// still establishes off the 1s retransmission, with the RTO collapsed back
// to its initial value once the handshake completes.
func TestTCPSYNLossRetransmit(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	echoServer(b, 80)

	a.NIC().Loss = 1 // swallow the first SYN
	s.Schedule(500*time.Millisecond, func() { a.NIC().Loss = 0 })

	t0 := s.Now()
	var connectedAt time.Duration
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() { connectedAt = s.Now() }
	s.RunFor(time.Minute)

	if connectedAt == 0 {
		t.Fatal("never connected after SYN loss")
	}
	if got := connectedAt - t0; got < rtoInitial {
		t.Fatalf("connected %v after dial; first SYN cannot have been lost", got)
	}
	if c.rto() != rtoInitial || c.retries != 0 {
		t.Fatalf("RTO not reset after establish: rto=%v retries=%d", c.rto(), c.retries)
	}
}

// TestTCPMidStreamLossRecovery drops a data segment on an established
// connection and checks retransmission delivers it and that the ACK
// refills the retry budget.
func TestTCPMidStreamLossRecovery(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)

	var got []byte
	b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	})

	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() {
		a.NIC().Loss = 1 // the segment written next is dropped
		c.Write([]byte("retransmit me"))
		s.Schedule(500*time.Millisecond, func() { a.NIC().Loss = 0 })
	}
	s.RunFor(time.Minute)

	if string(got) != "retransmit me" {
		t.Fatalf("got %q after mid-stream loss", got)
	}
	if c.rto() != rtoInitial || c.retries != 0 {
		t.Fatalf("RTO not reset after ACK progress: rto=%v retries=%d", c.rto(), c.retries)
	}
}

// TestTCPFINLossClose drops the FIN and checks the close handshake still
// completes cleanly off the retransmission, leaving no connection state.
func TestTCPFINLossClose(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	echoServer(b, 80) // closes when the peer closes

	var closedClean bool
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() {
		a.NIC().Loss = 1 // swallow the FIN
		c.Close()
		s.Schedule(500*time.Millisecond, func() { a.NIC().Loss = 0 })
	}
	c.OnClose = func(err error) { closedClean = err == nil }
	s.RunFor(2 * time.Minute) // past retransmission + TIME_WAIT

	if !closedClean {
		t.Fatal("connection did not close cleanly after FIN loss")
	}
	if len(a.conns) != 0 || len(b.conns) != 0 {
		t.Fatalf("conn state leaked after FIN loss: a=%d b=%d", len(a.conns), len(b.conns))
	}
}

// TestTCPRetransmitExhaustion blackholes the link permanently and checks
// the connection dies with ErrTimeout at exactly the time the capped
// exponential backoff schedule predicts: retransmissions at 1, 3, 7, 15
// and 31 seconds after the SYN (intervals 1, 2, 4, 8, 16), then a final
// 16s wait — 47 seconds in all.
func TestTCPRetransmitExhaustion(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	a.NIC().Loss = 1 // permanent blackhole

	t0 := s.Now()
	var gotErr error
	var diedAt time.Duration
	c := a.Dial(b.Addr(), 80)
	c.OnClose = func(err error) { gotErr, diedAt = err, s.Now() }
	s.RunFor(time.Minute)

	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want %v", gotErr, ErrTimeout)
	}
	want := 47 * time.Second
	if got := diedAt - t0; got != want {
		t.Fatalf("connection died %v after dial, want exactly %v (1+2+4+8+16+16s backoff)", got, want)
	}
	if c.retries != maxRetransmits+1 {
		t.Fatalf("retries = %d, want %d", c.retries, maxRetransmits+1)
	}
}

// TestTCPBackoffDoublesToCap samples the RTO between retransmissions and
// checks it doubles from the initial value up to rtoMax and then sticks
// there instead of growing unbounded.
func TestTCPBackoffDoublesToCap(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	warmARP(t, s, a, b)
	a.NIC().Loss = 1

	c := a.Dial(b.Addr(), 80)
	// Sample just after each scheduled retransmission (at 1, 3, 7, 15, 31s).
	sampleAt := []time.Duration{
		1500 * time.Millisecond,
		3500 * time.Millisecond,
		7500 * time.Millisecond,
		15500 * time.Millisecond,
		31500 * time.Millisecond,
	}
	want := []time.Duration{
		2 * time.Second,
		4 * time.Second,
		8 * time.Second,
		16 * time.Second,
		16 * time.Second, // capped at rtoMax
	}
	var prev time.Duration
	for i, at := range sampleAt {
		s.RunFor(at - prev)
		prev = at
		if c.rto() != want[i] {
			t.Fatalf("rto = %v at t+%v, want %v", c.rto(), at, want[i])
		}
	}
}
