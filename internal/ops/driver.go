// Package ops is the live operations plane: an HTTP server exposing a
// running farm's event journal (SSE), telemetry registry (JSON and
// Prometheus text), flight-recorder dumps, health, and runtime control
// (policy swaps, chaos injection, inmate quarantine) while the simulation
// soaks in real time.
//
// Two rules keep the ops plane from perturbing the experiment it watches
// (DESIGN.md §3h):
//
//   - Read endpoints touch only snapshots and bounded per-subscriber ring
//     buffers — never sim-owned state, and never with backpressure into
//     the emit path. A slow HTTP client loses events (counted), not the
//     farm.
//   - Control endpoints mutate sim state only from inside a sim event,
//     injected into the owning domain's event loop (sim.Inject), so
//     operator intervention lands in the journal in the same total order
//     as everything else the farm does, and cross-domain effects travel
//     the same sim.Hop path as the farm's own.
package ops

import (
	"errors"
	"sync/atomic"
	"time"

	"gq/internal/sim"
)

// DefaultTick is the wall-clock pacing quantum of the soak loop: each tick
// the driver advances virtual time by speed*DefaultTick.
const DefaultTick = 50 * time.Millisecond

// ErrTimeout is returned by Do when the simulation loop does not pick up
// an injected control action within the deadline (wedged or stopped sim).
var ErrTimeout = errors.New("ops: control action timed out awaiting the sim loop")

// ErrStopped is returned by Do after the driver has shut down.
var ErrStopped = errors.New("ops: driver stopped")

// Driver runs a simulation as a long-lived real-time-paced soak, and is
// the sole doorway through which alien goroutines (HTTP handlers) reach
// sim state: Do injects a control action into the domain that owns the
// state it touches.
type Driver struct {
	s     *sim.Simulator
	coord *sim.Coordinator // non-nil when s is a coordinated root
	speed float64
	tick  time.Duration

	stop     atomic.Bool
	done     chan struct{}
	progress atomic.Int64 // wall ns of the last completed pump slice
}

// NewDriver prepares a soak driver advancing s at speed× real time
// (speed <= 0 defaults to 1). When s is the root of a coordinated
// (sharded) farm the driver runs the whole coordinator.
func NewDriver(s *sim.Simulator, speed float64) *Driver {
	if speed <= 0 {
		speed = 1
	}
	return &Driver{
		s: s, coord: s.Coordinator(),
		speed: speed, tick: DefaultTick, done: make(chan struct{}),
	}
}

// Run drives the soak loop until Stop, blocking the calling goroutine —
// which becomes the simulation goroutine for the duration. Each iteration
// advances one tick's worth of virtual time, stamps the liveness clock,
// and sleeps off any wall-time surplus.
//
// How a tick advances is the one place an unsharded and a sharded farm
// genuinely differ: a standalone simulator is pumped, so an injection wakes
// the loop at once and real time is yielded to alien goroutines before
// virtual time leaps; a coordinator runs lockstep windows to the tick's end
// and admits injections at the next tick's start.
func (d *Driver) Run() {
	defer close(d.done)
	d.progress.Store(time.Now().UnixNano())
	stop := func() bool { return d.stop.Load() }
	for !d.stop.Load() {
		start := time.Now()
		if d.coord != nil {
			d.coord.RunUntil(d.coord.Now() + time.Duration(float64(d.tick)*d.speed))
		} else {
			target := d.s.Now() + time.Duration(float64(d.tick)*d.speed)
			if d.s.Pump(target, stop) {
				break // stop predicate satisfied mid-pump
			}
		}
		d.progress.Store(time.Now().UnixNano())
		if rest := d.tick - time.Since(start); rest > 0 {
			time.Sleep(rest)
		}
	}
}

// Stop ends the soak loop and waits for Run to return. Safe to call more
// than once and from any goroutine.
func (d *Driver) Stop() {
	d.stop.Store(true)
	// Wake a Pump parked on an empty event queue. (A coordinated loop never
	// parks — RunUntil returns as soon as the tick's events are done.)
	d.s.Inject(func() {})
	<-d.done
}

// Now reports virtual time through the simulator's cross-goroutine mirror.
func (d *Driver) Now() time.Duration { return d.s.ObservedNow() }

// SinceProgress reports wall time since the soak loop last completed a
// pump slice — the /healthz liveness signal.
func (d *Driver) SinceProgress() time.Duration {
	return time.Since(time.Unix(0, d.progress.Load()))
}

// Do runs fn inside dom's event loop and waits for its result, at most
// timeout. fn executes on dom's own goroutine at dom's clock, in FIFO
// injection order; on a sharded farm other domains may be running
// concurrently, so it must touch only state dom owns and reach any other
// domain through sim.Hop. On timeout the action may still execute later —
// the caller just stops waiting.
func (d *Driver) Do(timeout time.Duration, dom *sim.Simulator, fn func() error) error {
	if d.stop.Load() {
		return ErrStopped
	}
	ch := make(chan error, 1)
	dom.Inject(func() { ch <- fn() })
	select {
	case err := <-ch:
		return err
	case <-d.done:
		return ErrStopped
	case <-time.After(timeout):
		return ErrTimeout
	}
}
