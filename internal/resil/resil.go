// Package resil is the campaign-wide fault-tolerance layer: bounded
// deterministic retry with exponential backoff and seeded jitter, a
// call-count circuit breaker for throttle storms, and a strike/parole
// quarantine for misbehaving mutators.
//
// The paper's headline result is an eight-month bug-hunting campaign —
// which only works if one flaky LLM call, one pathological mutator, or
// one torn checkpoint cannot take down the fleet. Everything here is
// deterministic by construction (jitter comes from a seeded generator,
// breaker and quarantine clocks count calls and ticks, never wall
// time), so a campaign under injected faults is as reproducible as a
// fault-free one.
//
// Metric families (all optional — a nil registry disables them):
//
//	resil_retries_total{stage}      granted retries per pipeline stage
//	resil_breaker_state             0 closed, 1 half-open, 2 open
//	resil_breaker_trips_total       closed→open transitions
//	resil_deferred_total            calls denied while the breaker was open
//	resil_quarantines_total{id}     quarantine admissions per offender
//	resil_paroles_total{id}         re-admissions after a clean parole
package resil

import (
	"time"

	"github.com/icsnju/metamut-go/internal/obs"
)

// mix64 is the splitmix64 finalizer — the one-call hash behind every
// deterministic "random" decision in this package.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash folds ints into a uniform uint64 — exported for the chaos
// injector's interleaving-independent fault decisions.
func Hash(parts ...int64) uint64 {
	h := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		h = mix64(h ^ uint64(p))
	}
	return h
}

// Policy shapes a bounded retry loop: how many attempts a stage may
// spend and how long to back off between them. The zero value is usable
// and means "use the defaults" — see withDefaults.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first
	// (default 5). 1 means no retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 250ms);
	// each further retry multiplies it by Multiplier (default 2), capped
	// at MaxDelay (default 30s).
	BaseDelay  time.Duration
	MaxDelay   time.Duration
	Multiplier float64
	// Jitter spreads each delay by ±Jitter fraction (default 0.25),
	// drawn from the retrier's seed — deterministic, not clock-derived.
	Jitter float64
	// Registry receives resil_retries_total{stage} (nil disables it).
	Registry *obs.Registry
}

// DefaultPolicy returns the standard campaign policy.
func DefaultPolicy() Policy {
	return Policy{MaxAttempts: 5, BaseDelay: 250 * time.Millisecond,
		MaxDelay: 30 * time.Second, Multiplier: 2, Jitter: 0.25}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter <= 0 || p.Jitter > 1 {
		p.Jitter = d.Jitter
	}
	return p
}

// Retrier tracks one stage's attempt budget. It is not safe for
// concurrent use; create one per retry loop.
type Retrier struct {
	p       Policy
	stage   string
	state   uint64
	retries int
}

// Retrier returns a fresh attempt budget for one stage. seed pins the
// jitter sequence: equal (policy, stage, seed) yield byte-identical
// backoff schedules.
func (p Policy) Retrier(stage string, seed int64) *Retrier {
	norm := p.withDefaults()
	norm.Registry = p.Registry
	return &Retrier{p: norm, stage: stage,
		state: Hash(seed) ^ Hash(int64(len(stage)))}
}

// Next reports whether the budget allows another attempt after a
// failure, and the backoff to observe before it. Once it returns false
// the caller must surface a terminal error instead of spinning.
func (r *Retrier) Next() (time.Duration, bool) {
	if r.retries >= r.p.MaxAttempts-1 {
		return 0, false
	}
	d := float64(r.p.BaseDelay)
	for i := 0; i < r.retries; i++ {
		d *= r.p.Multiplier
		if d >= float64(r.p.MaxDelay) {
			d = float64(r.p.MaxDelay)
			break
		}
	}
	r.state = mix64(r.state)
	// u in [0,1): 53 uniform bits, same construction as rand.Float64.
	u := float64(r.state>>11) / (1 << 53)
	d *= 1 + r.p.Jitter*(2*u-1)
	delay := time.Duration(d)
	r.retries++
	if r.p.Registry != nil {
		r.p.Registry.Counter("resil_retries_total", "stage").With(r.stage).Inc()
	}
	return delay, true
}

// Retries returns the retries granted so far.
func (r *Retrier) Retries() int { return r.retries }
