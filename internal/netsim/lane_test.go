package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"gq/internal/sim"
)

// A port's same-domain frames in flight wait in its lane, and only the
// lane's head is on the simulator's queue (see enlane). The tests here hold
// that to the delivery it replaced — one timer per frame — and pin its cost.

// refDeliver is Port.deliver with one timer per frame: every record is armed
// on its own timer, within a domain as across one.
func refDeliver(p *Port, buf []byte, after time.Duration) {
	f := p.wire.take()
	f.peer, f.buf = p.peer, buf
	p.sim.PostTimerTo(p.peer.sim, after, &f.timer)
}

// refSend is Port.SendOwned over refDeliver: the same admission, the same
// impairment draws in the same order, the same delays.
func refSend(p *Port, frame []byte) {
	if !p.admit(frame) {
		return
	}
	if p.dup > 0 && p.sim.Rand().Float64() < p.dup {
		p.dupFrames.Inc()
		refDeliver(p, append([]byte(nil), frame...), p.delay())
	}
	if p.corrupt > 0 && len(frame) > 0 && p.sim.Rand().Float64() < p.corrupt {
		bit := p.sim.Rand().Intn(len(frame) * 8)
		frame[bit/8] ^= 1 << uint(bit%8)
		p.corruptFrames.Inc()
	}
	refDeliver(p, frame, p.delay())
}

// delivery is one frame handed to a receiver.
type delivery struct {
	port  string
	at    time.Duration
	frame string
}

// laneWorld is what one run of a seeded random topology did: every domain's
// deliveries in the order they happened, its event count and the farm-wide
// drop and impairment counters.
type laneWorld struct {
	log      [2][]delivery
	fired    [2]uint64
	counters []string
	reorders [2]int // deliveries that a frame sent after them overtook
}

var laneImpairments = []Impairment{
	{},
	{},
	{Jitter: 120 * time.Microsecond},
	{Reorder: 0.3},
	{Dup: 0.4},
	{Loss: 0.2},
	{Corrupt: 0.2},
	{Loss: 0.05, Jitter: 300 * time.Microsecond, Reorder: 0.1, Dup: 0.2, Corrupt: 0.05},
}

// runLaneWorld builds a topology from seed — links of mixed latency and
// impairment in the root domain and in a second one, one trunk between them,
// frames sent at random times, receivers that answer some frames from inside
// their callback, ports that go down and come back while frames are in
// flight — and runs it with every frame leaving its port through send.
func runLaneWorld(seed int64, send func(p *Port, frame []byte)) laneWorld {
	gen := rand.New(rand.NewSource(seed)) // drawn from while building only
	root := sim.New(seed)
	c := sim.NewCoordinator(root, TrunkLatency, 2)
	doms := [2]*sim.Simulator{root, c.NewDomain()}
	var w laneWorld
	var ports []*Port

	newPort := func(di int, name string) *Port {
		dom := doms[di]
		var p *Port
		lastSeq := 0 // the highest send number delivered here
		p = NewPort(dom, name, func(f []byte) {
			w.log[di] = append(w.log[di], delivery{name, dom.Now(), string(f)})
			if seq := int(f[2])<<8 | int(f[3]); f[1] == 0 && p.peer.corrupt == 0 {
				if seq < lastSeq {
					w.reorders[di]++
				}
				lastSeq = max(lastSeq, seq)
			}
			if f[0]%4 == 0 && f[1] < 3 { // answer, from inside the callback
				answer := append([]byte(nil), f...)
				answer[0], answer[1] = answer[0]+1, answer[1]+1
				send(p, answer)
			}
		})
		ports = append(ports, p)
		return p
	}
	latencies := []time.Duration{0, 10 * time.Microsecond, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond}
	link := func(da, db int, latency time.Duration) {
		n := len(ports)
		a, b := newPort(da, fmt.Sprint("p", n)), newPort(db, fmt.Sprint("p", n+1))
		Connect(a, b, latency)
		a.Impair(laneImpairments[gen.Intn(len(laneImpairments))])
		b.Impair(laneImpairments[gen.Intn(len(laneImpairments))])
	}
	for i, n := 0, 3+gen.Intn(4); i < n; i++ {
		link(0, 0, latencies[gen.Intn(len(latencies))])
	}
	link(1, 1, latencies[gen.Intn(len(latencies))])
	link(0, 1, TrunkLatency)

	const horizon = 5 * time.Millisecond
	for pi, p := range ports {
		dom := p.sim
		sent := 0
		for i, n := 0, 10+gen.Intn(30); i < n; i++ {
			frame := []byte{byte(gen.Intn(256)), 0, 0, 0, byte(pi), 0xaa, 0xbb, 0xcc}
			p := p
			dom.Schedule(time.Duration(gen.Int63n(int64(horizon))), func() {
				frame[2], frame[3] = byte(sent>>8), byte(sent) // numbered in send order
				sent++
				send(p, frame)
			})
		}
		if gen.Intn(3) == 0 { // a flap while frames are in flight to it
			down := time.Duration(gen.Int63n(int64(horizon)))
			dom.Schedule(down, func() { p.SetUp(false) })
			dom.Schedule(down+time.Duration(gen.Int63n(int64(time.Millisecond))), func() { p.SetUp(true) })
		}
	}
	for _, dom := range doms { // unrelated events between the landings
		dom.Every(70*time.Microsecond, func() {})
	}
	c.RunUntil(4 * horizon)

	for i, dom := range doms {
		w.fired[i] = dom.Fired
	}
	for _, name := range []string{"netsim.port_loss_drops", "netsim.port_down_drops", "netsim.port_rx_drops",
		"netsim.port_dup_frames", "netsim.port_corrupt_frames", "netsim.port_reorder_frames"} {
		w.counters = append(w.counters, fmt.Sprintf("%s %d", name, root.Obs().Snapshot().Counter(name)))
	}
	return w
}

// TestLanesMatchPerFrameTimers: on random topologies, lanes deliver every
// frame to the same port at the same virtual time with the same bytes, in
// the same order among all the domain's events, as one timer per frame.
func TestLanesMatchPerFrameTimers(t *testing.T) {
	reorders := 0
	for seed := int64(1); seed <= 24; seed++ {
		got := runLaneWorld(seed, (*Port).SendOwned)
		want := runLaneWorld(seed, refSend)
		for i := range got.log {
			if len(got.log[i]) == 0 {
				t.Fatalf("seed %d: domain %d delivered nothing", seed, i)
			}
			if !reflect.DeepEqual(got.log[i], want.log[i]) {
				t.Fatalf("seed %d: domain %d deliveries differ at %s", seed, i, firstDiff(got.log[i], want.log[i]))
			}
		}
		if got.fired != want.fired {
			t.Errorf("seed %d: fired %v events, per-frame timers fired %v", seed, got.fired, want.fired)
		}
		if !reflect.DeepEqual(got.counters, want.counters) {
			t.Errorf("seed %d: counters\n%q\nwant\n%q", seed, got.counters, want.counters)
		}
		reorders += got.reorders[0] + got.reorders[1]
	}
	if reorders == 0 {
		t.Error("no frame overtook another: the topologies never exercised ordered insertion")
	}
}

func firstDiff(got, want []delivery) string {
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			var w any = "nothing"
			if i < len(want) {
				w = want[i]
			}
			return fmt.Sprintf("delivery %d: %+v, want %+v", i, got[i], w)
		}
	}
	return fmt.Sprintf("delivery %d: nothing, want %+v", len(got), want[len(got)])
}

// circulate puts n frames in flight on one link whose receiver sends each
// frame straight back onto the link as it lands, staggered over one latency
// so n stay in flight.
func circulate(n int) *sim.Simulator {
	s := sim.New(1)
	a := NewPort(s, "a", nil)
	b := NewPort(s, "b", a.SendOwned)
	Connect(a, b, 0)
	for i := 0; i < n; i++ {
		frame := make([]byte, 64)
		s.Schedule(time.Duration(i)*DefaultLinkLatency/time.Duration(n), func() { a.SendOwned(frame) })
	}
	s.RunFor(4 * DefaultLinkLatency)
	return s
}

// TestLaneHopAllocFree: with 512 frames in flight on one link, a hop — land,
// re-arm the lane, receive, send again — allocates nothing.
func TestLaneHopAllocFree(t *testing.T) {
	s := circulate(512)
	if allocs := testing.AllocsPerRun(2000, func() { s.Step() }); allocs != 0 {
		t.Errorf("a hop with 512 frames in flight costs %v allocations, want 0", allocs)
	}
	if n := s.Pending(); n != 1 {
		t.Errorf("%d events pending with one link busy, want its lane head alone", n)
	}
}

// BenchmarkLinkInFlight is the link layer's cost per frame hop with 1, 64
// and 512 frames in flight on one link.
func BenchmarkLinkInFlight(b *testing.B) {
	for _, n := range []int{1, 64, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			s := circulate(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Step()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
		})
	}
}

// TestLandsNow: a port sees the lane's frames still to land at the current
// instant, behind the one landing, and no others: not one that landed
// before it, not one due a microsecond later, and never one from another
// domain, which rides its own timer.
func TestLandsNow(t *testing.T) {
	isX := func(f []byte) bool { return f[0] == 'x' }
	isY := func(f []byte) bool { return f[0] == 'y' }
	s := sim.New(1)
	var b *Port
	got := map[string][2]bool{}
	b = NewPort(s, "b", func(f []byte) { got[string(f)] = [2]bool{b.LandsNow(isX), b.LandsNow(isY)} })
	a := NewPort(s, "a", nil)
	Connect(a, b, 0)
	for _, f := range []string{"x1", "y1", "x2"} {
		a.Send([]byte(f))
	}
	s.Schedule(time.Microsecond, func() { a.Send([]byte("x3")) })
	s.Run()
	want := map[string][2]bool{
		"x1": {true, true},   // y1 and x2 land at this instant
		"y1": {true, false},  // x2 does
		"x2": {false, false}, // x3 lands a microsecond later
		"x3": {false, false},
	}
	for f, w := range want {
		if got[f] != w {
			t.Errorf("at %s's landing: LandsNow(x), LandsNow(y) = %v, want %v", f, got[f], w)
		}
	}

	root := sim.New(1)
	c := sim.NewCoordinator(root, TrunkLatency, 1)
	d := c.NewDomain()
	var far *Port
	landed, saw := 0, false
	far = NewPort(d, "far", func([]byte) {
		landed++
		saw = saw || far.LandsNow(func([]byte) bool { return true })
	})
	near := NewPort(root, "near", nil)
	Connect(near, far, TrunkLatency)
	root.Schedule(0, func() {
		near.Send([]byte("x1"))
		near.Send([]byte("x2"))
	})
	c.RunUntil(3 * TrunkLatency)
	if landed != 2 || saw {
		t.Errorf("across domains: %d frames landed, LandsNow true at one: %v; want 2 and false", landed, saw)
	}
}
