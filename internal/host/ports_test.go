package host

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// The per-port connection counts behind allocEphemeral, against a recount
// of the connection table.

// checkPortCounts recounts h.conns by local port — the scan allocEphemeral
// used to do — and requires h.portConns to say exactly that.
func checkPortCounts(t *testing.T, h *Host, when string) {
	t.Helper()
	want := map[uint16]int{}
	for k, c := range h.conns {
		if k != c.key {
			t.Fatalf("%s: %s table key %+v holds a conn keyed %+v", when, h.Name, k, c.key)
		}
		want[k.localPort]++
	}
	if len(h.portConns) != len(want) {
		t.Fatalf("%s: %s counts %d ports, table has %d: %v vs %v", when, h.Name, len(h.portConns), len(want), h.portConns, want)
	}
	for port, n := range want {
		if h.portConns[port] != n {
			t.Fatalf("%s: %s port %d counted %d, table holds %d", when, h.Name, port, h.portConns[port], n)
		}
	}
}

// probeEphemeral asks what allocEphemeral would hand out with its cursor
// at port, and puts the cursor back.
func probeEphemeral(h *Host, port uint16) uint16 {
	saved := h.nextEphem
	h.nextEphem = port
	got := h.allocEphemeral()
	h.nextEphem = saved
	return got
}

// TestEphemeralPortHeldByTimeWait: a connection lingering in TIME_WAIT is
// in the table and nowhere else, and it alone keeps its port taken — until
// the instant it is destroyed.
func TestEphemeralPortHeldByTimeWait(t *testing.T) {
	s := sim.New(1)
	a, b := pair(t, s)
	echoServer(b, 80)
	c := a.Dial(b.Addr(), 80)
	port := c.LocalPort()
	c.OnConnect = func() { c.Close() }
	freedAtClose := false
	c.OnClose = func(err error) {
		freedAtClose = err == nil && probeEphemeral(a, port) == port
	}
	s.RunFor(time.Second)
	if c.State() != StateTimeWait || len(a.conns) != 1 {
		t.Fatalf("state %v with %d conns, want TIME_WAIT alone", c.State(), len(a.conns))
	}
	if got := probeEphemeral(a, port); got != port+1 {
		t.Fatalf("with %d in TIME_WAIT allocEphemeral = %d, want %d", port, got, port+1)
	}
	s.RunFor(timeWaitDuration - 2*time.Second)
	if got := probeEphemeral(a, port); c.State() != StateTimeWait || got != port+1 {
		t.Fatalf("late in TIME_WAIT (%v) allocEphemeral = %d, want %d", c.State(), got, port+1)
	}
	s.Run()
	if !freedAtClose || len(a.conns) != 0 || len(a.portConns) != 0 {
		t.Fatalf("port free inside OnClose: %v; after: %d conns, counts %v", freedAtClose, len(a.conns), a.portConns)
	}
}

// TestPassiveOpensShareAndBlockEphemeralPort: connections accepted through
// ListenAny on a local port inside the ephemeral range take that port out
// of the range — no listener or socket map knows about it — and two of
// them sharing it release it only when the second goes.
func TestPassiveOpensShareAndBlockEphemeralPort(t *testing.T) {
	s, h, peer := rawSetup(t)
	h.ListenAny(func(*Conn) {})
	const port = 40000
	syn := func(srcPort uint16) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: srcPort, DstPort: port, Seq: 1000, Flags: netstack.FlagSYN, Window: 65535,
		}, nil)
		s.RunFor(10 * time.Millisecond)
	}
	rst := func(srcPort uint16) {
		peer.send(h.MAC(), h.Addr(), &netstack.TCP{
			SrcPort: srcPort, DstPort: port, Seq: 1001, Flags: netstack.FlagRST,
		}, nil)
		s.RunFor(10 * time.Millisecond)
	}
	syn(5555)
	syn(5556)
	if len(h.conns) != 2 || h.portConns[port] != 2 {
		t.Fatalf("%d conns, port %d counted %d, want 2 and 2", len(h.conns), port, h.portConns[port])
	}
	h.nextEphem = port
	if c := h.Dial(peer.addr, 80); c.LocalPort() != port+1 {
		t.Fatalf("Dial took local port %d with %d held by passive opens, want %d", c.LocalPort(), port, port+1)
	}
	rst(5555)
	if got := probeEphemeral(h, port); len(h.conns) != 2 || got != port+2 {
		t.Fatalf("one of two gone: %d conns, allocEphemeral = %d, want %d", len(h.conns), got, port+2)
	}
	rst(5556)
	if got := probeEphemeral(h, port); got != port {
		t.Fatalf("both gone: allocEphemeral = %d, want %d back", got, port)
	}
	checkPortCounts(t, h, "after resets")
}

// TestResetAndShutdownClearPortCounts: bulk teardown leaves no count behind.
func TestResetAndShutdownClearPortCounts(t *testing.T) {
	for _, teardown := range []string{"Reset", "Shutdown"} {
		s := sim.New(1)
		a, b := pair(t, s)
		echoServer(b, 80)
		a.ListenAny(func(*Conn) {})
		for i := 0; i < 5; i++ {
			a.Dial(b.Addr(), 80)
			b.Dial(a.Addr(), 40000)
		}
		s.RunFor(time.Second)
		if len(a.conns) != 10 || a.portConns[40000] != 5 {
			t.Fatalf("%s setup: %d conns, %d on port 40000", teardown, len(a.conns), a.portConns[40000])
		}
		if teardown == "Reset" {
			a.Reset()
		} else {
			a.Shutdown()
		}
		if len(a.conns) != 0 || len(a.portConns) != 0 {
			t.Fatalf("after %s: %d conns, counts %v", teardown, len(a.conns), a.portConns)
		}
	}
}

// TestPortCountsMatchTableAfterStorm is the property: after any seeded
// storm of opens (active, and passive onto ephemeral-range ports), closes,
// aborts, resets and shutdowns — with OnClose callbacks that redial, so
// connections are born in the middle of a bulk teardown and some outlive
// the table they were entered in — the counts equal a recount of the table.
func TestPortCountsMatchTableAfterStorm(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			s := sim.New(seed)
			rng := rand.New(rand.NewSource(seed))
			a, b := pair(t, s)
			hosts := [2]*Host{a, b}
			addrs := [2]netstack.Addr{a.Addr(), b.Addr()}
			var conns []*Conn
			var dial func(from int)
			dial = func(from int) {
				h, to := hosts[from], addrs[1-from]
				// Half the time onto the peer's ephemeral range, so its
				// passive opens collide with ports its own dials want.
				port := uint16(80)
				if rng.Intn(2) == 0 {
					port = 32768 + uint16(rng.Intn(8))
				}
				c := h.Dial(to, port)
				if rng.Intn(3) == 0 {
					c.OnClose = func(error) { dial(from) }
				}
				conns = append(conns, c)
			}
			serve := func(h *Host) {
				h.ListenAny(func(c *Conn) {
					c.OnPeerClose = func() { c.Close() }
					conns = append(conns, c)
				})
			}
			serve(a)
			serve(b)
			for op := 0; op < 400; op++ {
				what := ""
				switch r := rng.Intn(20); {
				case r < 8:
					what = "dial"
					dial(rng.Intn(2))
				case r < 11 && len(conns) > 0:
					what = "close"
					conns[rng.Intn(len(conns))].Close()
				case r < 13 && len(conns) > 0:
					what = "abort"
					conns[rng.Intn(len(conns))].Abort()
				case r < 18:
					what = "run"
					s.RunFor(time.Duration(rng.Intn(3000)) * time.Millisecond)
				default:
					i := rng.Intn(2)
					h := hosts[i]
					if what = "reset"; rng.Intn(2) == 0 {
						what = "shutdown+reset"
						h.Shutdown()
						checkPortCounts(t, h, "shutdown")
					}
					h.Reset()
					h.ConfigureStatic(addrs[i], 24, 0)
					serve(h)
				}
				checkPortCounts(t, a, fmt.Sprintf("op %d (%s)", op, what))
				checkPortCounts(t, b, fmt.Sprintf("op %d (%s)", op, what))
			}
			s.RunFor(10 * time.Minute)
			checkPortCounts(t, a, "drained")
			checkPortCounts(t, b, "drained")
		})
	}
}

// BenchmarkDialWithOpenConns opens and drops one connection on a host that
// already holds n: the cost of Dial must not depend on n. (It did while
// allocEphemeral ranged over the table for every port it probed.)
func BenchmarkDialWithOpenConns(b *testing.B) {
	for _, n := range []int{16, 16384} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := sim.New(1)
			h := New(s, "h", netstack.MAC{2, 0, 0, 0, 0, 1})
			h.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
			peer := netstack.MustParseAddr("10.0.0.2")
			h.arpCache[peer] = netstack.MAC{2, 0, 0, 0, 0, 2} // the NIC is unwired: SYNs drop at the port
			for i := 0; i < n; i++ {
				h.Dial(peer, 80)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Dial(peer, 80).destroy(nil)
			}
			b.StopTimer()
			if len(h.conns) != n {
				b.Fatalf("%d conns left, want %d", len(h.conns), n)
			}
		})
	}
}
