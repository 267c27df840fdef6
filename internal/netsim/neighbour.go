package netsim

import (
	"time"

	"gq/internal/netstack"
	"gq/internal/sim"
)

// Resolution schedule of every stack in the farm (hosts, the gateway's VLAN
// side, its outside interface): a request every ARPRetryInterval, the
// neighbour given up after ARPMaxTries of them.
const (
	ARPRetryInterval = time.Second
	ARPMaxTries      = 3
)

// Waits is one interface's table of unresolved neighbours, keyed by K. The
// owner keeps its own cache — a hit never comes here — and supplies the
// request it broadcasts for a key; it flushes the Wait that Learned hands
// back.
type Waits[K comparable, F any] struct {
	sim     *sim.Simulator
	request func(K)
	waits   map[K]*Wait[K, F]
}

// Wait is one unresolved neighbour: the frames (of the owner's type F)
// parked behind it, oldest first and at most netstack.MaxARPPending, and the
// retry timer of the request in flight.
type Wait[K comparable, F any] struct {
	Frames []F
	t      *Waits[K, F]
	key    K
	tries  int
	retry  sim.Timer
}

// NewWaits makes an empty table whose retry timers run on s and whose
// requests go out through request.
func NewWaits[K comparable, F any](s *sim.Simulator, request func(K)) *Waits[K, F] {
	return &Waits[K, F]{sim: s, request: request, waits: make(map[K]*Wait[K, F])}
}

// Park queues f behind key's resolution, starting one — a request now —
// when none is in flight. It reports false when netstack.MaxARPPending
// frames wait for key already: the newest is the one dropped.
func (t *Waits[K, F]) Park(key K, f F) bool {
	w := t.waits[key]
	if w == nil {
		w = &Wait[K, F]{t: t, key: key}
		w.retry.Init(t.sim, w.expire)
		t.waits[key] = w
		w.ask()
	}
	if len(w.Frames) >= netstack.MaxARPPending {
		return false
	}
	w.Frames = append(w.Frames, f)
	return true
}

func (w *Wait[K, F]) ask() {
	w.t.request(w.key)
	w.retry.Reset(ARPRetryInterval)
}

// expire runs ARPRetryInterval after each request: nothing to do if the
// neighbour was learned meanwhile, else ask again, or after ARPMaxTries give
// it up and drop the traffic parked for it.
func (w *Wait[K, F]) expire() {
	if w.t.waits[w.key] != w {
		return
	}
	if w.tries++; w.tries >= ARPMaxTries {
		delete(w.t.waits, w.key)
		return
	}
	w.ask()
}

// Learned takes key's wait out of the table for the owner to flush, nil
// when key is not being resolved. The wait's retry stays armed unless the
// owner Stops it: left alone it fires once more and does nothing.
func (t *Waits[K, F]) Learned(key K) *Wait[K, F] {
	w := t.waits[key]
	delete(t.waits, key)
	return w
}

// Stop cancels the wait's pending retry.
func (w *Wait[K, F]) Stop() { w.retry.Stop() }

// Reset abandons every wait and the frames parked behind it.
func (t *Waits[K, F]) Reset() {
	for _, w := range t.waits {
		w.Stop()
	}
	clear(t.waits)
}
