package obs

import "time"

// Span measures one pipeline stage. Ending a span records its duration
// into the span_seconds{span} histogram. Spans are cheap enough for
// per-invocation stages (invent, synthesize, refine) but are not meant
// for the per-tick fuzzing hot path — counters cover that.
type Span struct {
	reg   *Registry
	name  string
	start time.Time
}

// Span begins a named span. Safe on a nil registry: the returned span
// no-ops.
func (r *Registry) Span(name string) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, name: name, start: time.Now()}
}

// End completes the span and returns its duration (0 on nil).
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram("span_seconds", nil, "span").With(s.name).Observe(d.Seconds())
	return d
}
