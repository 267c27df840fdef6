package sim

import "time"

// LadderConfig tunes one retry ladder.
type LadderConfig struct {
	// Backoff is the first retry delay; it doubles per Delay up to
	// BackoffMax, each delay stretched by up to Jitter of itself.
	Backoff    time.Duration
	BackoffMax time.Duration
	Jitter     float64
	// Threshold attempts recorded within Window trip the circuit breaker.
	Window    time.Duration
	Threshold int
}

// Ladder is the farm's one retry policy: capped exponential backoff with
// sim-RNG jitter behind a circuit breaker over a sliding window. Every
// supervised restart, re-arm and raw-iron retry climbs one. It reads its
// simulator's clock and RNG, so it belongs to that domain's goroutine.
// Clients choose when an attempt counts: Record before Tripped charges the
// failure in hand against the breaker (raw-iron), Tripped before Record
// charges only attempts already made (restarts).
type Ladder struct {
	s       *Simulator
	cfg     LadderConfig
	backoff time.Duration
	history []time.Duration // recorded attempts, pruned to Window by Tripped
}

// NewLadder returns a ladder at its initial backoff with an empty history.
func NewLadder(s *Simulator, cfg LadderConfig) *Ladder {
	return &Ladder{s: s, cfg: cfg, backoff: cfg.Backoff}
}

// Record charges one attempt, at the current sim time, against the breaker.
func (l *Ladder) Record() { l.history = append(l.history, l.s.Now()) }

// Tripped prunes the history to the breaker window and reports whether
// what remains reaches the threshold.
func (l *Ladder) Tripped() bool {
	now := l.s.Now()
	kept := l.history[:0]
	for _, t := range l.history {
		if now-t <= l.cfg.Window {
			kept = append(kept, t)
		}
	}
	l.history = kept
	return len(kept) >= l.cfg.Threshold
}

// Load reports how many attempts count against the breaker.
func (l *Ladder) Load() int { return len(l.history) }

// Delay returns the next retry delay — the current backoff plus exactly
// one RNG draw of jitter — and doubles the backoff up to its cap.
func (l *Ladder) Delay() time.Duration {
	d := l.backoff
	d += time.Duration(l.s.Rand().Float64() * l.cfg.Jitter * float64(d))
	l.backoff *= 2
	if l.backoff > l.cfg.BackoffMax {
		l.backoff = l.cfg.BackoffMax
	}
	return d
}

// Reset returns the backoff to its initial value once the thing retried
// has recovered. The breaker history stays: flapping still trips it.
func (l *Ladder) Reset() { l.backoff = l.cfg.Backoff }

// Clear forgets the breaker history — an operator vouching for a repair.
func (l *Ladder) Clear() { l.history = l.history[:0] }
