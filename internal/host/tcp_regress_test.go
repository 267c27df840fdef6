package host

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gq/internal/netsim"
	"gq/internal/netstack"
	"gq/internal/sim"
)

// TestTCPStreamIntegrityUnderImpairment replays the reassembly fixes
// under the chaos knobs that originally exposed them: loss, reordering
// and duplication on the data path plus ACK loss on the return path, so
// go-back-N retransmits resend from a shifted sndUna and produce
// partially-overlapping segments. The stream must arrive byte-exact and
// the connection must close cleanly — before the overlap-trim fix,
// partially-overlapping stashes strand in the ooo map and the transfer
// wedges until retransmission exhaustion.
func TestTCPStreamIntegrityUnderImpairment(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			s := sim.New(seed)
			a := New(s, "client", netstack.MAC{2, 0, 0, 0, 0, 1})
			b := New(s, "server", netstack.MAC{2, 0, 0, 0, 0, 2})
			netsim.Connect(a.NIC(), b.NIC(), time.Millisecond)
			a.ConfigureStatic(netstack.MustParseAddr("10.0.0.1"), 24, 0)
			b.ConfigureStatic(netstack.MustParseAddr("10.0.0.2"), 24, 0)
			a.NIC().Impair(netsim.Impairment{Loss: 0.05, Reorder: 0.3, Dup: 0.2})
			b.NIC().Impair(netsim.Impairment{Loss: 0.1})

			// Odd-sized chunks so retransmit runs never share boundaries
			// with the original transmission.
			var want []byte
			chunk := func(i int) []byte {
				n := 700 + (i*523)%1900
				d := make([]byte, n)
				for j := range d {
					d[j] = byte(i + j)
				}
				return d
			}
			for i := 0; i < 20; i++ {
				want = append(want, chunk(i)...)
			}

			var got []byte
			var serverSawEOF bool
			strandedAtEOF := -1
			b.Listen(80, func(c *Conn) {
				c.OnData = func(d []byte) { got = append(got, d...) }
				c.OnPeerClose = func() {
					serverSawEOF = true
					// At EOF every stashed segment has either been
					// delivered (trimmed) or swept as a stale duplicate;
					// anything left is stranded by the reassembly bug.
					strandedAtEOF = c.stashed()
					c.Close()
				}
			})
			var clientClosed, clientClean bool
			c := a.Dial(b.Addr(), 80)
			c.OnConnect = func() {
				for i := 0; i < 20; i++ {
					i := i
					s.Schedule(time.Duration(i)*50*time.Millisecond, func() {
						c.Write(chunk(i))
						if i == 19 {
							c.Close()
						}
					})
				}
			}
			c.OnClose = func(err error) { clientClosed, clientClean = true, err == nil }
			s.RunFor(10 * time.Minute)

			if !bytes.Equal(got, want) {
				t.Fatalf("stream corrupted under impairment: got %d bytes, want %d (first diff at %d)",
					len(got), len(want), firstDiff(got, want))
			}
			if !serverSawEOF {
				t.Fatal("server never saw EOF")
			}
			if strandedAtEOF != 0 {
				t.Fatalf("%d segments stranded in the reassembly stash at EOF", strandedAtEOF)
			}
			if !clientClosed || !clientClean {
				t.Fatalf("client close: closed=%v clean=%v", clientClosed, clientClean)
			}
			if len(a.conns) != 0 || len(b.conns) != 0 {
				t.Fatalf("conn leak: a=%d b=%d", len(a.conns), len(b.conns))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestTCPTimeWaitIgnoresRST pins the RFC 1337 guard: a late RST (drawn by
// a duplicate of our own traffic hitting the peer's already-closed
// socket) must not assassinate TIME_WAIT and turn a clean shutdown into
// a reset.
func TestTCPTimeWaitIgnoresRST(t *testing.T) {
	s, h, peer := rawSetup(t)
	var conn *Conn
	var closeErr error
	closed := false
	h.Listen(80, func(c *Conn) {
		conn = c
		c.OnPeerClose = func() { c.Close() }
		c.OnClose = func(err error) { closed, closeErr = true, err }
	})
	serverISN, next := rawHandshake(t, s, h, peer, 80)
	// Victim closes first (active closer) so it is the side that ends in
	// TIME_WAIT.
	conn.Close()
	s.RunFor(100 * time.Millisecond)
	fin := peer.lastTCP()
	if fin == nil || fin.TCP.Flags&netstack.FlagFIN == 0 {
		t.Fatal("victim sent no FIN")
	}
	// ACK the FIN and send our own: victim lands in TIME_WAIT.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next, Ack: serverISN + 2,
		Flags: netstack.FlagACK | netstack.FlagFIN, Window: 65535,
	}, nil)
	s.RunFor(100 * time.Millisecond)
	if conn.State() != StateTimeWait {
		t.Fatalf("state %v, want TIME_WAIT", conn.State())
	}
	// Late RST must be ignored; the conn waits out TIME_WAIT and closes
	// cleanly.
	peer.send(h.MAC(), h.Addr(), &netstack.TCP{
		SrcPort: 5555, DstPort: 80, Seq: next + 1, Ack: serverISN + 2,
		Flags: netstack.FlagRST | netstack.FlagACK, Window: 65535,
	}, nil)
	s.RunFor(time.Second)
	if conn.State() != StateTimeWait {
		t.Fatalf("RST assassinated TIME_WAIT: state %v", conn.State())
	}
	s.RunFor(time.Minute)
	if !closed || closeErr != nil {
		t.Fatalf("TIME_WAIT did not end cleanly: closed=%v err=%v", closed, closeErr)
	}
}

// TestAllocEphemeralScansFullRange pins the exhaustion fix: with every
// ephemeral port but one occupied, allocEphemeral must find the free one
// no matter where it sits relative to the scan cursor. The pre-fix scan
// gave up after 28000 probes over a 32768-port range and panicked with
// thousands of ports still free.
func TestAllocEphemeralScansFullRange(t *testing.T) {
	s := sim.New(1)
	h := New(s, "h", netstack.MAC{2, 0, 0, 0, 0, 1})
	// Occupy the whole ephemeral range except one port >28000 probes from
	// the initial cursor (32768). Listeners are the cheapest occupancy.
	const free = 62000
	for p := 32768; p < 65536; p++ {
		if p != free {
			h.listeners[uint16(p)] = func(*Conn) {}
		}
	}
	if got := h.allocEphemeral(); got != free {
		t.Fatalf("allocEphemeral = %d, want %d", got, free)
	}
}

// TestAllocEphemeralWraparound: a cursor near the top of the range must
// wrap to 32768 and keep scanning.
func TestAllocEphemeralWraparound(t *testing.T) {
	s := sim.New(1)
	h := New(s, "h", netstack.MAC{2, 0, 0, 0, 0, 1})
	const free = 32800
	for p := 32768; p < 65536; p++ {
		if p != free {
			h.listeners[uint16(p)] = func(*Conn) {}
		}
	}
	h.nextEphem = 65500
	if got := h.allocEphemeral(); got != free {
		t.Fatalf("allocEphemeral after wraparound = %d, want %d", got, free)
	}
	if h.nextEphem < 32768 {
		t.Fatalf("cursor left outside ephemeral range: %d", h.nextEphem)
	}
}

// TestAllocEphemeralTrueExhaustion: only a genuinely full range panics.
func TestAllocEphemeralTrueExhaustion(t *testing.T) {
	s := sim.New(1)
	h := New(s, "h", netstack.MAC{2, 0, 0, 0, 0, 1})
	for p := 32768; p < 65536; p++ {
		h.listeners[uint16(p)] = func(*Conn) {}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on true exhaustion")
		}
	}()
	h.allocEphemeral()
}
