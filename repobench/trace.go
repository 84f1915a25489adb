package main

import (
	"math/rand"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/sched"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanStep  spanKind = iota // engine.Worker.Step
	spanApply                 // muast.Mutator Info.Fn
	spanSched                 // sched.Scheduler calls
	spanMerge                 // fuzz.CoverageSink.MergeIfNew
	nSpanKinds
)

var spanNames = [nSpanKinds]string{"fuzz.step", "muast.apply", "sched", "cover.merge"}

// span is one timed call. Spans of one step share (stream, step); the
// step span is the parent of every other span with the same id.
type span struct {
	Kind    spanKind `json:"-"`
	Name    string   `json:"name"` // filled in when written out
	Stream  int      `json:"stream"`
	Step    int      `json:"step"`
	StartNS int64    `json:"start_ns"`
	DurNS   int64    `json:"dur_ns"`
}

// maxMutantSamples bounds the mutants kept per stream for replay.
const maxMutantSamples = 64

// streamTrace collects one stream's spans. Only the goroutine running
// the stream writes it; the engine's epoch barrier orders those writes
// before the tracer reads them.
type streamTrace struct {
	id     int
	origin time.Time
	step   int
	spans  []span

	busy  [nSpanKinds]int64 // total ns per kind
	calls [nSpanKinds]int
	// childNS is the time child spans covered inside the current step;
	// selfNS accumulates step time not covered by any child.
	childNS, selfNS int64
	// epochBusy is step time since the last epoch barrier.
	epochBusy int64

	// Manager builds are observed as a Fn call handed a different
	// *muast.Manager than the previous call of the same step.
	lastMgr     *muast.Manager
	lastMgrStep int
	builds      int
	produced    int
	newMerges   int
	mutants     []string
	sampleRNG   *rand.Rand
}

func (st *streamTrace) now() int64 { return int64(time.Since(st.origin)) }

func (st *streamTrace) record(k spanKind, t0, t1 int64) {
	st.spans = append(st.spans, span{Kind: k, Stream: st.id, Step: st.step, StartNS: t0, DurNS: t1 - t0})
	st.busy[k] += t1 - t0
	st.calls[k]++
	if k != spanStep {
		st.childNS += t1 - t0
	}
}

// tracer owns every stream's spans plus the epoch-barrier clock.
type tracer struct {
	origin  time.Time
	workers int
	streams []*streamTrace
	seedGen time.Duration

	lastBarrier int64
	epochs      int
	barrierWait int64
}

func newTracer(workers int) *tracer {
	return &tracer{origin: time.Now(), workers: workers}
}

// reset drops the streams of a previous set-up repetition.
func (t *tracer) reset() { t.streams = nil }

func (t *tracer) stream(id int) *streamTrace {
	st := &streamTrace{id: id, origin: t.origin, sampleRNG: rand.New(rand.NewSource(int64(id) + 1))}
	for len(t.streams) <= id {
		t.streams = append(t.streams, nil)
	}
	t.streams[id] = st
	return st
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// start marks the beginning of the measured run (the first epoch).
func (t *tracer) start() { t.lastBarrier = t.now() }

// onEpoch is engine.Config.OnEpoch: worker idle time in the epoch is
// the fleet's wall capacity minus the step time the streams used.
func (t *tracer) onEpoch(done, total int) {
	now := t.now()
	var busy int64
	for _, st := range t.streams {
		busy += st.epochBusy
		st.epochBusy = 0
	}
	t.barrierWait += int64(t.workers)*(now-t.lastBarrier) - busy
	t.lastBarrier = now
	t.epochs++
}

// tracedWorker spans engine.Worker.Step.
type tracedWorker struct {
	engine.Worker
	st *streamTrace
}

func (w *tracedWorker) Step() {
	st := w.st
	st.step++
	st.childNS = 0
	t0 := st.now()
	w.Worker.Step()
	t1 := st.now()
	st.record(spanStep, t0, t1)
	st.selfNS += (t1 - t0) - st.childNS
	st.epochBusy += t1 - t0
}

// tracedSink spans fuzz.CoverageSink.MergeIfNew.
type tracedSink struct {
	inner fuzz.CoverageSink
	st    *streamTrace
}

func (s tracedSink) MergeIfNew(m *cover.Map) bool {
	t0 := s.st.now()
	ok := s.inner.MergeIfNew(m)
	s.st.record(spanMerge, t0, s.st.now())
	if ok {
		s.st.newMerges++
	}
	return ok
}

// tracedSched spans the scheduling calls a fuzzer makes per step.
type tracedSched struct {
	inner sched.Scheduler
	st    *streamTrace
}

func (s *tracedSched) Kind() string { return s.inner.Kind() }
func (s *tracedSched) Arms() int    { return s.inner.Arms() }

func (s *tracedSched) Order(rng *rand.Rand, allowed func(int) bool) []int {
	t0 := s.st.now()
	out := s.inner.Order(rng, allowed)
	s.st.record(spanSched, t0, s.st.now())
	return out
}

func (s *tracedSched) Pick(rng *rand.Rand, allowed func(int) bool) int {
	t0 := s.st.now()
	out := s.inner.Pick(rng, allowed)
	s.st.record(spanSched, t0, s.st.now())
	return out
}

func (s *tracedSched) Observe(arm int, r sched.Reward) {
	t0 := s.st.now()
	s.inner.Observe(arm, r)
	s.st.record(spanSched, t0, s.st.now())
}

func (s *tracedSched) ObserveBatch(arm int, rs []sched.Reward) {
	t0 := s.st.now()
	s.inner.ObserveBatch(arm, rs)
	s.st.record(spanSched, t0, s.st.now())
}

func (s *tracedSched) State() *sched.State                          { return s.inner.State() }
func (s *tracedSched) Restore(st *sched.State) error                { return s.inner.Restore(st) }
func (s *tracedSched) Instrument(reg *obs.Registry, names []string) { s.inner.Instrument(reg, names) }
func (s *tracedSched) SetObserver(fn sched.Observer)                { s.inner.SetObserver(fn) }

// wrapMutators rebuilds each mutator under the same name with a timed
// Info.Fn. The copies are per stream, so each records into its own
// stream's spans.
func (st *streamTrace) wrapMutators(ms []*muast.Mutator) []*muast.Mutator {
	out := make([]*muast.Mutator, len(ms))
	for i, mu := range ms {
		info := mu.Info
		fn := info.Fn
		info.Fn = func(m *muast.Manager) bool {
			if m != st.lastMgr || st.step != st.lastMgrStep {
				st.builds++
				st.lastMgr, st.lastMgrStep = m, st.step
			}
			t0 := st.now()
			ok := fn(m)
			st.record(spanApply, t0, st.now())
			if ok && m.Changed() {
				st.produced++
				// Keep a seeded sample of produced mutants for the replay;
				// rendering one happens outside the timed Fn span.
				if len(st.mutants) < maxMutantSamples && st.sampleRNG.Intn(16) == 0 {
					st.mutants = append(st.mutants, m.Apply())
				}
			}
			return ok
		}
		out[i] = &muast.Mutator{Info: info}
	}
	return out
}
