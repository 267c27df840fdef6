// Package netsim provides the simulated link layer of the farm: point-to-
// point links between ports, and learning 802.1Q VLAN switches. Frames are
// raw bytes in real wire format (see internal/netstack); delivery is
// scheduled on the shared discrete-event simulator.
package netsim

import (
	"fmt"
	"time"

	"gq/internal/obs"
	"gq/internal/sim"
)

// DefaultLinkLatency is the one-way delay applied when a link is created
// with zero latency. A small nonzero value keeps event ordering realistic
// (a reply can never overtake the request that provoked it).
const DefaultLinkLatency = 50 * time.Microsecond

// TrunkLatency is the modeled one-way latency of a trunk between
// simulation domains — subfarm uplinks, the external-domain bridge of the
// flat Internet segment, the management-plane crossings. It is defined as
// the coordinator's default lookahead so the physical wire delay and the
// synchronization window can never drift apart: a cross-domain link at
// TrunkLatency always satisfies the CrossFloor check below, and a
// coordinator built with DefaultLookahead never has to clamp it.
const TrunkLatency = sim.DefaultLookahead

// reorderHoldFactor is how many link latencies a reorder-selected frame is
// held back, letting frames sent after it overtake on the FIFO event queue.
const reorderHoldFactor = 3

// Impairment is a deterministic link fault profile. All probabilities draw
// from the simulator RNG and all extra delays run on the simulator clock,
// so a given seed replays the exact same fault sequence.
type Impairment struct {
	// Loss is the probability (0..1) that a transmitted frame is dropped.
	Loss float64
	// Jitter adds a uniform extra delay in [0, Jitter) to each delivery.
	Jitter time.Duration
	// Reorder is the probability a frame is held back long enough for
	// later frames to overtake it.
	Reorder float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Corrupt is the probability a single bit of the frame is flipped.
	Corrupt float64
}

// Port is one end of a link. The owner supplies a receive callback; Send
// delivers a frame to the peer port after the link latency.
type Port struct {
	Name string

	sim     *sim.Simulator
	wire    *wire // p.sim's in-flight records, shared by all its ports
	recv    func(frame []byte)
	peer    *Port
	latency time.Duration
	up      bool

	// The lane: frames in flight to this port from its own domain, in
	// firing order, threaded through their records. Only the head is
	// queued, on landing (see enlane).
	head, tail *inflight
	landing    sim.Timer

	// Loss is the probability (0..1) that a transmitted frame is silently
	// dropped. Used for failure-injection tests; Impair sets it too.
	Loss float64

	// Remaining impairment knobs (see Impairment). Set via Impair.
	jitter  time.Duration
	reorder float64
	dup     float64
	corrupt float64

	// Farm-wide drop/impairment totals shared by all ports of one
	// simulation. Loss-model drops and admin-down drops are distinct
	// series so injected impairment is distinguishable from a pulled
	// cable in the journal.
	lossDrops, downDrops, rxDrops      *obs.Counter
	dupFrames, corruptFrames, reorders *obs.Counter
}

// NewPort creates an unattached port. recv may be nil for send-only ports
// (e.g. a pure tap).
func NewPort(s *sim.Simulator, name string, recv func(frame []byte)) *Port {
	reg := s.Obs().Reg
	p := &Port{
		Name: name, sim: s, wire: wireOf(s), recv: recv, up: true,
		lossDrops:     reg.Counter("netsim.port_loss_drops"),
		downDrops:     reg.Counter("netsim.port_down_drops"),
		rxDrops:       reg.Counter("netsim.port_rx_drops"),
		dupFrames:     reg.Counter("netsim.port_dup_frames"),
		corruptFrames: reg.Counter("netsim.port_corrupt_frames"),
		reorders:      reg.Counter("netsim.port_reorder_frames"),
	}
	p.landing.Init(s, p.land)
	return p
}

// Impair installs a fault profile on this port's transmit side. Passing the
// zero Impairment clears all impairment.
func (p *Port) Impair(im Impairment) {
	p.Loss = im.Loss
	p.jitter = im.Jitter
	p.reorder = im.Reorder
	p.dup = im.Dup
	p.corrupt = im.Corrupt
}

// Connect joins two ports with the given one-way latency (DefaultLinkLatency
// if zero). Connecting an already-connected port panics: topology is static
// within an experiment.
//
// A link whose endpoints live in different simulation domains is a
// domain-crossing boundary: frames ride the coordinator's deterministic
// merge. Its latency must be at least the coordinator's lookahead — the
// link *is* the modeled trunk/uplink wire whose delay makes conservative
// synchronization sound — so a shorter latency is a topology bug and
// panics here rather than silently desynchronizing replay.
func Connect(a, b *Port, latency time.Duration) {
	if a.peer != nil || b.peer != nil {
		panic(fmt.Sprintf("netsim: port already connected (%s / %s)", a.Name, b.Name))
	}
	if latency <= 0 {
		latency = DefaultLinkLatency
	}
	if a.sim != b.sim {
		if !a.sim.SameWorld(b.sim) {
			panic(fmt.Sprintf("netsim: ports %s / %s belong to unrelated simulations", a.Name, b.Name))
		}
		if floor := a.sim.CrossFloor(b.sim); latency < floor {
			panic(fmt.Sprintf("netsim: cross-domain link %s <-> %s latency %v below coordinator lookahead %v",
				a.Name, b.Name, latency, floor))
		}
	}
	a.peer, b.peer = b, a
	a.latency, b.latency = latency, latency
}

// Peer returns the other end of the link, or nil if unconnected. Chaos
// schedules use it to impair or flap both directions of an inmate link.
func (p *Port) Peer() *Port { return p.peer }

// SetUp administratively enables or disables the port. A downed port drops
// traffic in both directions, emulating a pulled cable or a powered-off
// raw-iron inmate.
func (p *Port) SetUp(up bool) { p.up = up }

// Up reports the administrative state.
func (p *Port) Up() bool { return p.up }

// Send transmits a frame to the peer after the link latency. The frame is
// copied into a buffer from the domain's frame list, so callers may reuse
// their own.
func (p *Port) Send(frame []byte) {
	if !p.admit(frame) {
		return
	}
	p.transmit(append(p.wire.frames.Take(len(frame)), frame...))
}

// SendOwned transmits a frame whose buffer the caller relinquishes: no
// defensive copy is made, so the caller must not touch the bytes again.
// This is the datapath fast path — a frame freshly marshalled (or patched
// in place) travels the wire without an extra allocation per hop.
func (p *Port) SendOwned(frame []byte) {
	if !p.admit(frame) {
		return
	}
	p.transmit(frame)
}

// admit runs the transmit-side bookkeeping and loss model, reporting
// whether the frame proceeds to delivery.
func (p *Port) admit(frame []byte) bool {
	if p.peer == nil || !p.up {
		p.downDrops.Inc()
		return false
	}
	if p.Loss > 0 && p.sim.Rand().Float64() < p.Loss {
		p.lossDrops.Inc()
		return false
	}
	return true
}

// transmit applies the post-admit impairments (duplication, corruption,
// jitter, reordering) to the now callee-owned buffer and schedules delivery.
func (p *Port) transmit(buf []byte) {
	if p.dup > 0 && p.sim.Rand().Float64() < p.dup {
		p.dupFrames.Inc()
		p.deliver(append(p.wire.frames.Take(len(buf)), buf...), p.delay())
	}
	if p.corrupt > 0 && len(buf) > 0 && p.sim.Rand().Float64() < p.corrupt {
		bit := p.sim.Rand().Intn(len(buf) * 8)
		buf[bit/8] ^= 1 << uint(bit%8)
		p.corruptFrames.Inc()
	}
	p.deliver(buf, p.delay())
}

// delay computes the delivery delay for one frame: base latency, plus
// uniform jitter, plus a hold-back when the frame is selected for
// reordering (the simulator's event queue is FIFO per timestamp, so only a
// larger delay lets later frames overtake).
func (p *Port) delay() time.Duration {
	d := p.latency
	if p.jitter > 0 {
		d += time.Duration(p.sim.Rand().Int63n(int64(p.jitter)))
	}
	if p.reorder > 0 && p.sim.Rand().Float64() < p.reorder {
		d += reorderHoldFactor * p.latency
		p.reorders.Inc()
	}
	return d
}

// inflight is one frame on a link: the buffer, the port it is headed for
// and when it lands there. On a link within one domain the record waits in
// the receiving port's lane under the key its send stamped; across domains
// it rides its own timer. Records are recycled through their domain's wire,
// so a hop costs no allocation.
type inflight struct {
	key        sim.Key
	prev, next *inflight // lane neighbours
	timer      sim.Timer // cross-domain delivery
	peer       *Port
	buf        []byte
}

// wire is one simulation domain's free list of in-flight records, and its
// frame list (see Frames), touched only by that domain's goroutine. A record
// is taken from the sending port's domain and released into the receiving
// port's, so records of a cross-domain link migrate with the traffic;
// maxIdleRecords bounds what a domain that mostly receives holds on to.
type wire struct {
	sim    *sim.Simulator
	idle   []*inflight
	frames Frames
}

// maxIdleRecords is far above the frames any farm in the tree has in flight
// inside one domain at once; idle records beyond it go to the collector.
const maxIdleRecords = 4096

type wireKey struct{}

// wireOf returns s's wire, creating it with the domain's first port.
func wireOf(s *sim.Simulator) *wire {
	return s.Local(wireKey{}, func() any { return &wire{sim: s} }).(*wire)
}

// take returns an idle record whose timer is bound to the wire's domain.
func (w *wire) take() *inflight {
	if n := len(w.idle); n > 0 {
		f := w.idle[n-1]
		w.idle[n-1] = nil
		w.idle = w.idle[:n-1]
		return f
	}
	f := &inflight{}
	f.timer.Init(w.sim, f.arrive)
	return f
}

// arrive fires in the receiving port's domain. The record goes back on that
// domain's free list before the frame is handed over, so a receiver that
// sends in turn re-uses it.
func (f *inflight) arrive() {
	peer, buf := f.peer, f.buf
	f.peer, f.buf = nil, nil
	if w := peer.wire; len(w.idle) < maxIdleRecords {
		w.idle = append(w.idle, f)
	}
	peer.receive(buf)
}

// deliver puts the (now callee-owned) buffer on the link in a record that
// lands at the peer after the delay. Within one domain the record takes the
// key a timer armed here would (Simulator.Stamp) and joins the peer's lane.
// When the peer lives in another domain the record crosses with the frame —
// buffer ownership transfers (no copy), the coordinator arms the record's
// timer in the receiving domain, and all receive bookkeeping runs there.
// Connect guarantees the link latency is at least the coordinator's
// lookahead, so the clamp in PostTimerTo never fires for frame delivery.
func (p *Port) deliver(buf []byte, after time.Duration) {
	f := p.wire.take()
	f.peer, f.buf = p.peer, buf
	if p.peer.sim != p.sim {
		p.sim.PostTimerTo(p.peer.sim, after, &f.timer)
		return
	}
	f.key = p.sim.Stamp(after)
	p.peer.enlane(f)
}

// enlane files f in p's lane in key order and re-arms landing when f is the
// new head. An unimpaired link's frames land in the order they were sent,
// so f goes at the tail; jitter, reordering and duplicates walk it back
// from there. The head is the lane's minimum, so the simulator's next event
// is the one a timer per frame would have fired.
func (p *Port) enlane(f *inflight) {
	at := p.tail
	for at != nil && f.key.Before(at.key) {
		at = at.prev
	}
	f.prev = at
	if at == nil {
		f.next, p.head = p.head, f
		p.landing.ResetAt(f.key)
	} else {
		f.next, at.next = at.next, f
	}
	if f.next == nil {
		p.tail = f
	} else {
		f.next.prev = f
	}
}

// land fires at the lane head's key: it arms the next record's, then hands
// the head over as a record's own timer would.
func (p *Port) land() {
	f := p.head
	if p.head = f.next; p.head != nil {
		p.head.prev = nil
		p.landing.ResetAt(p.head.key)
	} else {
		p.tail = nil
	}
	f.next = nil
	f.arrive()
}

// LandsNow reports whether a frame match accepts is still to land at p at
// the current virtual instant, behind the one landing now. It reads only
// the lane, so a frame from another domain, which rides its own timer,
// never counts; match sees each frame's bytes and must not keep them.
func (p *Port) LandsNow(match func(frame []byte) bool) bool {
	now := p.sim.Now()
	for f := p.head; f != nil && f.key.At() == now; f = f.next {
		if match(f.buf) {
			return true
		}
	}
	return false
}

// receive runs the receiving-side bookkeeping and hands the frame to the
// port's receive callback. Always runs on the owning domain's goroutine.
func (p *Port) receive(buf []byte) {
	if !p.up {
		p.rxDrops.Inc()
		return
	}
	if p.recv == nil {
		return // a send-only port: frames reaching it are not drops
	}
	p.recv(buf)
}
