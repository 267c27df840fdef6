package ops

import (
	"sync"
	"time"
)

// Deadman is the ops plane's wall-clock dead-man switch over the soak
// loop itself — the one watcher that cannot run on the virtual clock,
// because the failure it guards against is the virtual clock no longer
// advancing (a wedged pump, a livelocked domain, a Driver whose
// goroutine died). It polls the driver's progress stamp and fires onDead
// once per stall episode when no pump slice has completed for the
// budget; a recovering loop re-arms it.
//
// onDead runs on the deadman's own goroutine and must not block on the
// sim loop it just declared dead: hand the escalation to the tree with a
// bounded Driver.Do (which itself times out against a wedged loop) and
// fall back to direct router action only if that fails.
type Deadman struct {
	drv    *Driver
	budget time.Duration
	onDead func(stalled time.Duration)

	mu      sync.Mutex
	stop    chan struct{}
	stopped bool
	fired   bool
}

// NewDeadman starts a dead-man watch over drv: when the soak loop makes
// no progress for budget wall time, onDead fires (once per stall
// episode). Poll cadence is budget/4, floored at 10ms.
func NewDeadman(drv *Driver, budget time.Duration, onDead func(stalled time.Duration)) *Deadman {
	if budget <= 0 {
		budget = 30 * time.Second
	}
	dm := &Deadman{drv: drv, budget: budget, onDead: onDead, stop: make(chan struct{})}
	every := budget / 4
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	go dm.loop(every)
	return dm
}

func (dm *Deadman) loop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-dm.stop:
			return
		case <-t.C:
			dm.check()
		}
	}
}

func (dm *Deadman) check() {
	stalled := dm.drv.SinceProgress()
	dm.mu.Lock()
	if stalled < dm.budget {
		dm.fired = false // progress resumed; re-arm for the next episode
		dm.mu.Unlock()
		return
	}
	if dm.fired {
		dm.mu.Unlock()
		return
	}
	dm.fired = true
	fire := dm.onDead
	dm.mu.Unlock()
	if fire != nil {
		fire(stalled)
	}
}

// Stop ends the watch. Safe to call more than once.
func (dm *Deadman) Stop() {
	dm.mu.Lock()
	defer dm.mu.Unlock()
	if dm.stopped {
		return
	}
	dm.stopped = true
	close(dm.stop)
}
