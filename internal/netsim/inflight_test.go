package netsim

import (
	"fmt"
	"testing"
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// Link delivery rides recycled in-flight records (see wire). These tests pin
// what recycling must never change: every frame comes out exactly once, with
// its own bytes, whatever happens to the record that carried it — and a
// domain's free list is only ever touched by that domain's goroutine.

// TestRecordReusedInsideReceiveDoesNotRedeliver: a record goes back on the
// free list before its frame is handed over, so a receiver that sends from
// inside its callback gets the very record that is delivering to it. The
// earlier buffer must not ride along.
func TestRecordReusedInsideReceiveDoesNotRedeliver(t *testing.T) {
	s := sim.New(1)
	var a, b *Port
	var atA, atB []string
	a = NewPort(s, "a", func(f []byte) { atA = append(atA, string(f)) })
	b = NewPort(s, "b", func(f []byte) {
		atB = append(atB, string(f))
		// Answer in place: this send takes the record that carried f.
		b.SendOwned([]byte("re:" + string(f)))
	})
	Connect(a, b, 0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			a.SendOwned([]byte(fmt.Sprintf("m%d.%d", round, i)))
		}
		s.Run()
	}
	if len(atB) != 12 || len(atA) != 12 {
		t.Fatalf("b received %d frames and a %d answers, want 12 each: %q %q", len(atB), len(atA), atB, atA)
	}
	for i, m := range atB {
		if want := fmt.Sprintf("m%d.%d", i/4, i%4); m != want || atA[i] != "re:"+want {
			t.Fatalf("delivery %d: b got %q, a got %q, want %q and its answer", i, m, atA[i], want)
		}
	}
	// Four frames were in flight at once, never more: the records made for
	// the first burst carried every later frame and answer.
	if n := len(wireOf(s).idle); n != 4 {
		t.Errorf("%d idle records after the run, want the 4 of the first burst", n)
	}
}

// TestEveryFrameDeliveredOnceWithItsOwnBytes drives numbered frames through
// duplicating, reordering, jittering links and a port that goes down and
// comes back, and accounts for every one of them.
func TestEveryFrameDeliveredOnceWithItsOwnBytes(t *testing.T) {
	for _, tc := range []struct {
		name string
		im   Impairment
		per  int // deliveries per frame sent
	}{
		{"plain", Impairment{}, 1},
		{"dup", Impairment{Dup: 1}, 2},
		{"reorder", Impairment{Reorder: 0.5}, 1},
		{"jitter", Impairment{Jitter: 300 * time.Microsecond}, 1},
		{"all", Impairment{Dup: 1, Reorder: 0.3, Jitter: 200 * time.Microsecond}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(7)
			a := NewPort(s, "a", nil)
			b := newCollector(s, "b")
			Connect(a, b.port, 0)
			a.Impair(tc.im)
			const n = 200
			send := func(from int) {
				for i := from; i < from+n; i++ {
					// Staggered, so frames and duplicates interleave on the
					// queue and records are recycled mid-burst.
					frame := []byte(fmt.Sprintf("frame-%04d", i))
					s.Schedule(time.Duration(i)*20*time.Microsecond, func() { a.SendOwned(frame) })
				}
			}
			send(0)
			s.Run()
			// A downed receiver drops what arrives, releasing the records all
			// the same; the frames sent after it comes back up are unaffected.
			b.port.SetUp(false)
			send(n)
			s.Run()
			b.port.SetUp(true)
			send(2 * n)
			s.Run()

			seen := make(map[string]int)
			for i, f := range b.frames {
				seen[string(f)]++
				for _, g := range b.frames[:i] {
					if &f[0] == &g[0] {
						t.Fatalf("deliveries share a buffer: %q", f)
					}
				}
			}
			for i := 0; i < 3*n; i++ {
				want := tc.per
				if i >= n && i < 2*n {
					want = 0 // sent while the receiver was down
				}
				if got := seen[fmt.Sprintf("frame-%04d", i)]; got != want {
					t.Fatalf("frame %d delivered %d times, want %d", i, got, want)
				}
			}
			if len(seen) != 2*n {
				t.Fatalf("%d distinct frames delivered, want %d", len(seen), 2*n)
			}
			if drops := b.port.rxDrops.Value(); drops != uint64(n*tc.per) {
				t.Errorf("downed port dropped %d frames, want %d", drops, n*tc.per)
			}
		})
	}
}

// TestCrossDomainPingPong bounces frames between two domains running on two
// goroutines. A record is taken from the sender's wire and released into the
// receiver's, so under -race this is the proof that no free list is touched
// from two goroutines; the payload check is the proof that a record which
// changed domains still carries the right buffer.
func TestCrossDomainPingPong(t *testing.T) {
	root := sim.New(1)
	c := sim.NewCoordinator(root, TrunkLatency, 2)
	d := c.NewDomain()
	const lanes, bounces = 8, 50
	var a, b *Port
	hops := make([]int, lanes)
	bounce := func(back **Port) func([]byte) {
		return func(f []byte) {
			lane := int(f[0])
			if int(f[1]) != hops[lane]%256 {
				t.Errorf("lane %d: frame of hop %d arrived at hop %d", lane, f[1], hops[lane])
			}
			if hops[lane]++; hops[lane] < bounces {
				(*back).SendOwned([]byte{f[0], byte(hops[lane])})
			}
		}
	}
	// Each lane's counter is touched by whichever domain holds the lane's one
	// frame; the trunk latency orders the two.
	a = NewPort(root, "a", bounce(&a))
	b = NewPort(d, "b", bounce(&b))
	Connect(a, b, TrunkLatency)
	// Local traffic on both sides keeps each domain's own records cycling
	// while the trunk's migrate.
	for _, dom := range []*sim.Simulator{root, d} {
		x, y := NewPort(dom, "x", nil), NewPort(dom, "y", func([]byte) {})
		Connect(x, y, 0)
		dom.Every(time.Millisecond, func() { x.Send([]byte("local")) })
	}
	root.Schedule(0, func() {
		for lane := 0; lane < lanes; lane++ {
			a.SendOwned([]byte{byte(lane), 0})
		}
	})
	c.RunUntil(time.Duration(bounces+2) * TrunkLatency)
	for lane, n := range hops {
		if n != bounces {
			t.Errorf("lane %d made %d hops, want %d", lane, n, bounces)
		}
	}
}

// TestIdleRecordsAreBounded: a domain that only ever receives cross-domain
// traffic is handed a record with every frame; it keeps maxIdleRecords of
// them and leaves the rest to the collector.
func TestIdleRecordsAreBounded(t *testing.T) {
	root := sim.New(1)
	c := sim.NewCoordinator(root, TrunkLatency, 1)
	d := c.NewDomain()
	a := NewPort(root, "a", nil)
	got := 0
	b := NewPort(d, "b", func([]byte) { got++ })
	Connect(a, b, TrunkLatency)
	const n = maxIdleRecords + 500
	root.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a.SendOwned([]byte{byte(i)})
		}
	})
	c.RunUntil(3 * TrunkLatency)
	if got != n {
		t.Fatalf("delivered %d of %d frames", got, n)
	}
	if idle := len(wireOf(d).idle); idle != maxIdleRecords {
		t.Errorf("receiving domain holds %d idle records, want the cap %d", idle, maxIdleRecords)
	}
	if idle := len(wireOf(root).idle); idle != 0 {
		t.Errorf("sending domain holds %d idle records, want 0", idle)
	}
}

// TestMovedStationIsRelearnedOnItsFirstFrame: the bridge writes its table
// only when a source is new or has moved — and a station that moved must be
// found at its new port from its first frame on.
func TestMovedStationIsRelearnedOnItsFirstFrame(t *testing.T) {
	s := sim.New(1)
	sw, hosts := buildSwitch(s, []uint16{10, 10, 10})
	hosts[0].port.Send(frameTo(netstack.BroadcastMAC, mac(1), 0, "hello from port 0"))
	hosts[2].port.Send(frameTo(netstack.BroadcastMAC, mac(3), 0, "hello from port 2"))
	s.Run()
	for i := 0; i < 3; i++ { // steady state: known source, no change
		hosts[0].port.Send(frameTo(mac(3), mac(1), 0, "steady"))
	}
	s.Run()
	if len(sw.fdb) != 2 {
		t.Fatalf("FDB size %d, want 2", len(sw.fdb))
	}
	// mac(1) re-appears behind port 1 (a reverted inmate on another NIC).
	hosts[1].port.Send(frameTo(mac(3), mac(1), 0, "moved"))
	s.Run()
	for _, h := range hosts {
		h.frames = nil
	}
	flooded := sw.Flooded.Value()
	hosts[2].port.Send(frameTo(mac(1), mac(3), 0, "to the new port"))
	s.Run()
	if sw.Flooded.Value() != flooded || len(sw.fdb) != 2 {
		t.Errorf("frame to the moved station flooded (%d -> %d) or FDB grew to %d",
			flooded, sw.Flooded.Value(), len(sw.fdb))
	}
	if got := hosts[1].payloads(); len(got) != 1 || got[0] != "to the new port" {
		t.Errorf("new port got %q, want the frame", got)
	}
	if len(hosts[0].frames) != 0 {
		t.Errorf("old port still got %d frames", len(hosts[0].frames))
	}
}
