package host

import (
	"errors"
	"testing"
	"time"
	"unsafe"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// pair builds two hosts on one VLAN of a switch with static addresses in
// 10.0.0.0/24.
func pair(t *testing.T, s *sim.Simulator) (*Host, *Host) {
	t.Helper()
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	netsim.Connect(sw.AddAccessPort("a", 10), a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
	return a, b
}

func TestARPResolution(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	sock, err := a.ListenUDP(1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	if _, err := b.ListenUDP(2000, func(src netstack.Addr, sp uint16, data []byte) {
		got = append(got, data...) // data is the host's again once this returns
		if src != a.Addr() || sp != 1000 {
			t.Errorf("src %v:%d", src, sp)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sock.SendTo(b.Addr(), 2000, []byte("ping"))
	s.Run()
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
	// ARP cache should now be warm in both directions (b learned a from the
	// request, a learned b from the reply).
	if _, ok := a.arpCache[b.Addr()]; !ok {
		t.Error("a did not cache b's MAC")
	}
	if _, ok := b.arpCache[a.Addr()]; !ok {
		t.Error("b did not cache a's MAC")
	}
}

func TestARPUnresolvableDrops(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(t, s)
	sock, _ := a.ListenUDP(1000, nil)
	sock.SendTo(netstack.MustParseAddr("10.0.0.99"), 7, []byte("x"))
	s.Run()
	if a.arpWaits.Len() != 0 {
		t.Error("pending ARP state not cleaned up after retries exhausted")
	}
	// Retries happen at 1s intervals; total time should be ~3s.
	if s.Now() < 2*time.Second || s.Now() > 5*time.Second {
		t.Errorf("ARP retry schedule ran until %v", s.Now())
	}
}

func TestUDPBroadcast(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	sock, _ := a.ListenUDP(68, nil)
	var heard bool
	b.ListenUDP(67, func(_ netstack.Addr, _ uint16, data []byte) { heard = string(data) == "discover" })
	sock.SendTo(netstack.Addr(0xffffffff), 67, []byte("discover"))
	s.Run()
	if !heard {
		t.Fatal("broadcast datagram not delivered")
	}
}

func TestUDPPortConflict(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(t, s)
	if _, err := a.ListenUDP(53, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ListenUDP(53, nil); err == nil {
		t.Fatal("duplicate bind allowed")
	}
}

// echoServer makes b echo everything it receives on port.
func echoServer(b *Host, port uint16) {
	b.Listen(port, func(c *Conn) {
		c.OnData = func(data []byte) { c.Write(data) }
		c.OnPeerClose = func() { c.Close() }
	})
}

func TestTCPConnectEchoClose(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	echoServer(b, 80)

	var got []byte
	var connected, closedClean bool
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() { connected = true; c.Write([]byte("hello containment")) }
	c.OnData = func(d []byte) {
		got = append(got, d...)
		if len(got) == len("hello containment") {
			c.Close()
		}
	}
	c.OnClose = func(err error) { closedClean = err == nil }
	s.Run()

	if !connected {
		t.Fatal("never connected")
	}
	if string(got) != "hello containment" {
		t.Fatalf("echo got %q", got)
	}
	if !closedClean {
		t.Fatal("connection did not close cleanly")
	}
	if len(a.conns) != 0 {
		t.Errorf("client conns leaked: %d", len(a.conns))
	}
	// Server side may sit in TIME_WAIT briefly; run past it.
	s.RunFor(time.Minute)
	if len(b.conns) != 0 {
		t.Errorf("server conns leaked: %d", len(b.conns))
	}
}

func TestTCPLargeTransfer(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)

	// b counts received bytes.
	var received int
	b.Listen(9000, func(c *Conn) {
		c.OnData = func(d []byte) { received += len(d) }
		c.OnPeerClose = func() { c.Close() }
	})

	const total = 1 << 20 // 1 MiB, hundreds of segments
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i)
	}
	c := a.Dial(b.Addr(), 9000)
	c.OnConnect = func() { c.Write(payload); c.Close() }
	s.Run()
	if received != total {
		t.Fatalf("received %d of %d bytes", received, total)
	}
}

func TestTCPLossRecovery(t *testing.T) {
	s := sim.New(3)
	sw := netsim.NewSwitch(s, "sw")
	a := New(s, "a", netstack.MAC{2, 0, 0, 0, 0, 1})
	b := New(s, "b", netstack.MAC{2, 0, 0, 0, 0, 2})
	ap := sw.AddAccessPort("a", 10)
	netsim.Connect(ap, a.NIC(), 0)
	netsim.Connect(sw.AddAccessPort("b", 10), b.NIC(), 0)
	a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
	b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)

	var received int
	b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { received += len(d) }
	})

	c := a.Dial(b.Addr(), 80)
	payload := make([]byte, 64*1024)
	c.OnConnect = func() {
		// Start dropping 20% of client->switch frames after the handshake.
		a.NIC().Loss = 0.2
		c.Write(payload)
	}
	s.RunFor(5 * time.Minute)
	if received != len(payload) {
		t.Fatalf("received %d of %d bytes under loss", received, len(payload))
	}
}

func TestTCPConnectionRefused(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var gotErr error
	c := a.Dial(b.Addr(), 81) // nothing listening
	c.OnClose = func(err error) { gotErr = err }
	s.Run()
	if !errors.Is(gotErr, ErrConnReset) {
		t.Fatalf("err = %v, want reset", gotErr)
	}
}

func TestTCPTimeout(t *testing.T) {
	s := sim.New(1)
	a, _ := pair(t, s)
	var gotErr error
	// Address that resolves via ARP? It won't; ARP fails first and the SYN
	// is simply never delivered, so retransmissions exhaust.
	c := a.Dial(netstack.MustParseAddr("10.0.0.77"), 80)
	c.OnClose = func(err error) { gotErr = err }
	s.RunFor(time.Minute)
	if !errors.Is(gotErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", gotErr)
	}
}

func TestTCPAbortSendsRST(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var serverErr error
	b.Listen(80, func(c *Conn) {
		c.OnClose = func(err error) { serverErr = err }
	})
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() { c.Abort() }
	s.RunFor(time.Minute)
	if !errors.Is(serverErr, ErrConnReset) {
		t.Fatalf("server err = %v, want reset", serverErr)
	}
}

func TestTCPServerInitiatedClose(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	b.Listen(25, func(c *Conn) {
		c.Write([]byte("220 banner\r\n"))
		c.Close()
	})
	var got []byte
	var eof, closed bool
	c := a.Dial(b.Addr(), 25)
	c.OnData = func(d []byte) { got = append(got, d...) }
	c.OnPeerClose = func() { eof = true; c.Close() }
	c.OnClose = func(err error) { closed = err == nil }
	s.RunFor(time.Minute)
	if string(got) != "220 banner\r\n" || !eof || !closed {
		t.Fatalf("got=%q eof=%v closed=%v", got, eof, closed)
	}
}

func TestTCPDataWithDialPipelined(t *testing.T) {
	// Write before OnConnect: data must be queued and flushed after the
	// handshake completes.
	s := sim.New(1)
	a, b := pair(t, s)
	var got []byte
	b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { got = append(got, d...) }
	})
	c := a.Dial(b.Addr(), 80)
	c.Write([]byte("early"))
	s.RunFor(time.Minute)
	if string(got) != "early" {
		t.Fatalf("got %q", got)
	}
}

func TestTCPResetDuringTransfer(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var clientErr error
	b.Listen(80, func(c *Conn) {
		c.OnData = func(d []byte) { c.Abort() }
	})
	c := a.Dial(b.Addr(), 80)
	c.OnConnect = func() { c.Write([]byte("x")) }
	c.OnClose = func(err error) { clientErr = err }
	s.RunFor(time.Minute)
	if !errors.Is(clientErr, ErrConnReset) {
		t.Fatalf("client err = %v", clientErr)
	}
}

func TestHostResetClearsState(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	echoServer(b, 80)
	c := a.Dial(b.Addr(), 80)
	var closed bool
	c.OnClose = func(err error) { closed = true }
	s.RunFor(time.Second * 2)
	a.Reset()
	if !closed {
		t.Error("Reset did not close connections")
	}
	if a.Addr() != 0 || len(a.conns) != 0 || len(a.listeners) != 0 {
		t.Error("Reset left state behind")
	}
	s.RunFor(time.Minute) // b's half times out eventually; no panics
}

func TestEphemeralPortAllocation(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	echoServer(b, 80)
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		c := a.Dial(b.Addr(), 80)
		if seen[c.LocalPort()] {
			t.Fatalf("ephemeral port %d reused while in use", c.LocalPort())
		}
		seen[c.LocalPort()] = true
	}
}

func TestShutdownStopsTraffic(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	var heard bool
	b.ListenUDP(5, func(netstack.Addr, uint16, []byte) { heard = true })
	sock, _ := a.ListenUDP(6, nil)
	sock.SendTo(b.Addr(), 5, []byte("pre"))
	s.Run()
	if !heard {
		t.Fatal("setup failed")
	}
	heard = false
	b.Shutdown()
	sock.SendTo(b.Addr(), 5, []byte("post"))
	s.Run()
	if heard {
		t.Fatal("shut-down host processed a datagram")
	}
}

func TestTCPStateStrings(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" || StateTimeWait.String() != "TIME_WAIT" {
		t.Error("state names wrong")
	}
}

// Every flow through the farm opens a Conn on up to three hosts. Its
// endpoint lives once, in key, it has one timer and derives its RTO, its
// state and switches are single bytes, and its unacknowledged bytes are two
// offsets into its send buffer: a Conn fits the 192-byte size class.
func TestConnFitsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 192 {
		t.Errorf("host.Conn is %d bytes, want at most 192", n)
	}
}
