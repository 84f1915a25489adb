package obs

import "time"

// Span measures one pipeline stage. Ending a span records its duration
// into the span_seconds{span} histogram and, when a journal is
// attached, appends a structured event. Spans are cheap enough for
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
	return s.EndWith(nil)
}

// EndWith completes the span, attaching extra fields to the journal
// event (e.g. the invocation outcome).
func (s *Span) EndWith(fields map[string]any) time.Duration {
	if s == nil {
		return 0
	}
	d := time.Since(s.start)
	s.reg.Histogram("span_seconds", nil, "span").With(s.name).Observe(d.Seconds())
	if j := s.reg.Journal(); j != nil {
		rec := make(map[string]any, len(fields)+2)
		for k, v := range fields {
			rec[k] = v
		}
		rec["span"] = s.name
		rec["dur_us"] = d.Microseconds()
		j.Event("span", rec)
	}
	return d
}
