package resil

import (
	"errors"
	"sync"

	"github.com/icsnju/metamut-go/internal/obs"
)

// ErrOpen is returned in place of a real call while the breaker is
// open: the caller should defer the work and move on rather than treat
// it as a failure of the work itself.
var ErrOpen = errors.New("resil: circuit breaker open, call deferred")

// State is a circuit breaker state.
type State int

// Breaker states. The numeric values are what resil_breaker_state
// reports.
const (
	Closed   State = 0
	HalfOpen State = 1
	Open     State = 2
)

// String names the state for logs and tests.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// BreakerConfig tunes a Breaker. Both knobs count calls, never wall
// time, so breaker behavior is deterministic and independent of host
// speed.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failures that trips
	// the breaker open (default 5).
	FailureThreshold int
	// Cooldown is how many calls are denied while open before a single
	// half-open probe is admitted (default 8).
	Cooldown int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 8
	}
	return c
}

// Breaker is a call-count circuit breaker: consecutive failures trip it
// open, denied calls accumulate toward a cooldown, then one half-open
// probe decides whether to close again. Safe for concurrent use.
type Breaker struct {
	mu      sync.Mutex
	cfg     BreakerConfig
	state   State
	fails   int  // consecutive failures while closed
	denied  int  // denials since the breaker opened
	probing bool // a half-open probe is in flight

	mState    *obs.Gauge
	mTrips    *obs.Counter
	mDeferred *obs.Counter
}

// NewBreaker returns a closed breaker. reg may be nil.
func NewBreaker(cfg BreakerConfig, reg *obs.Registry) *Breaker {
	b := &Breaker{cfg: cfg.withDefaults()}
	if reg != nil {
		b.mState = reg.Gauge("resil_breaker_state").With()
		b.mTrips = reg.Counter("resil_breaker_trips_total").With()
		b.mDeferred = reg.Counter("resil_deferred_total").With()
	}
	return b
}

// Allow reports whether a call may proceed. While open it denies calls
// until the cooldown elapses, then admits exactly one probe; the probe's
// Success or Failure decides the next state. Every denial counts toward
// resil_deferred_total.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probing {
			b.mDeferred.Inc()
			return false
		}
		b.probing = true
		return true
	default: // Open
		b.denied++
		if b.denied >= b.cfg.Cooldown {
			b.setState(HalfOpen)
			b.probing = true
			return true
		}
		b.mDeferred.Inc()
		return false
	}
}

// Success reports a completed call; it closes the breaker if the call
// was the half-open probe and clears the failure streak.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == HalfOpen {
		b.probing = false
		b.setState(Closed)
	}
}

// Failure reports a breaker-relevant failure (for the LLM guard, a
// throttled call). Enough consecutive failures trip the breaker; a
// failed half-open probe reopens it for a fresh cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case HalfOpen:
		b.probing = false
		b.trip()
	default: // Open: a straggler call admitted before the trip; no-op.
	}
}

// trip moves to Open and starts a fresh cooldown. Callers hold b.mu.
func (b *Breaker) trip() {
	b.fails = 0
	b.denied = 0
	b.setState(Open)
	b.mTrips.Inc()
}

// setState records the transition and the gauge. Callers hold b.mu.
func (b *Breaker) setState(s State) {
	b.state = s
	b.mState.Set(int64(s))
}

// State returns the current state.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
