// Package flight is the campaign flight recorder: a causal, replayable
// record of everything significant a fuzzing campaign does — epoch
// barriers, checkpoints, mutator rewards, quarantine transitions, crash
// discoveries — plus the live ops console served from it and
// deterministic anomaly watchdogs over it.
//
// The journal is keyed by *logical* time only: campaign/epoch/stream
// causal IDs and per-stream ticks (compiler invocations), never
// wall-clock. Mid-epoch events are buffered per stream and drained in
// stream order at the epoch barrier, so a fixed seed produces a
// byte-identical journal at any worker count, and the journal of an
// interrupted-and-resumed campaign concatenates to the journal of an
// uninterrupted one. Wall-clock observability (latency histograms,
// spans) stays in internal/obs where it belongs; the console may join
// the two, the journal never does.
//
// Metric families (pre-registered by RegisterMetrics):
//
//	flight_events_total{kind}          journal events appended, by kind
//	flight_anomalies_total{kind}       watchdog detections, by kind
//	flight_journal_bytes               bytes written to the journal
//	flight_journal_rotations_total     size-cap rotations of the journal
//	flight_sse_clients                 live /debug/campaign/stream subscribers
//	flight_sse_dropped_total           events dropped on slow subscribers
package flight

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"

	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/sched"
)

// Event is one journal record. Epoch is the 1-based epoch the event
// belongs to, Stream the logical stream (-1 for campaign-level
// events), Tick the emitting stream's logical clock at emission (0 for
// barrier-level events). Data holds kind-specific fields; only
// deterministic values (ints, strings, bools, sorted-key maps, arrays)
// may go in — never wall-clock readings. encoding/json sorts map keys,
// so a given Event always marshals to the same bytes.
type Event struct {
	Epoch  int            `json:"epoch"`
	Stream int            `json:"stream"`
	Tick   int            `json:"tick,omitempty"`
	Kind   string         `json:"kind"`
	Data   map[string]any `json:"data,omitempty"`
}

// Config shapes a Recorder.
type Config struct {
	// Streams is the campaign's logical stream count.
	Streams int
	// TotalSteps is the campaign budget (for the header event and ETA).
	TotalSteps int
	// Seed is the campaign seed (header event).
	Seed int64
	// Done is the steps already completed when the recorder starts —
	// non-zero on checkpoint resume, which suppresses the header event
	// so resumed journals concatenate byte-identically.
	Done int
	// Registry receives the flight_* metric families (nil disables).
	Registry *obs.Registry
	// Journal receives JSONL event lines (nil disables persistence;
	// the ring buffer and console still work). An *obs.RotatingWriter
	// additionally feeds flight_journal_rotations_total.
	Journal io.Writer
	// RingSize caps the in-memory event ring the console and in-process
	// reports read from (default 65536; oldest events drop first).
	RingSize int
	// ArmNames are the mutator names backing scheduler arm indices, in
	// arm order — used to label posterior summaries. May be nil.
	ArmNames []string
	// Watchdogs tunes the anomaly detectors.
	Watchdogs WatchdogConfig
	// OnAnomaly, when set, receives each watchdog detection as it is
	// journaled — the hook that lets a supervisor turn observe-only
	// watchdogs into corrective action. It runs on the barrier goroutine
	// with the recorder's lock held: it must be fast and must not call
	// back into the Recorder. RestoreWatchdogs replays do not re-fire it
	// (their detections were already journaled by the interrupted run).
	OnAnomaly func(Event)
}

// Stream buffers one logical stream's mid-epoch events. Only the
// goroutine executing the stream may call Emit; the recorder drains
// the buffer at the epoch barrier (the engine's join provides the
// happens-before edge). All methods are nil-safe.
type Stream struct {
	rec *Recorder
	id  int
	buf []Event
}

// Emit buffers one event at the stream's current logical tick. The
// epoch is stamped at the barrier when the buffer is drained.
func (s *Stream) Emit(tick int, kind string, data map[string]any) {
	if s == nil {
		return
	}
	s.buf = append(s.buf, Event{Stream: s.id, Tick: tick, Kind: kind, Data: data})
}

// Recorder is the campaign flight recorder. All exported methods are
// nil-safe, so an un-instrumented campaign pays only nil checks.
type Recorder struct {
	cfg Config

	mu      sync.Mutex
	streams []*Stream
	global  []Event // campaign-level events buffered until the barrier
	ring    []Event
	written int64
	jerr    error
	last    EpochInfo
	epochs  int // last completed epoch number observed

	anomalies []Event
	crashes   map[string]*CrashBucket
	crashSigs []string // insertion order of crash buckets
	yields    map[string]*MutatorYield

	subs    map[chan []byte]bool
	dropped int64 // events dropped on slow subscribers

	wd watchdogState

	mEvents  *obs.CounterVec
	mAnoms   *obs.CounterVec
	mBytes   *obs.Gauge
	mRot     *obs.Counter
	mClients *obs.Gauge
	mDropped *obs.Counter
}

// EpochInfo is what the engine reports at each barrier.
type EpochInfo struct {
	Epoch   int `json:"epoch"`
	Done    int `json:"done"`
	Total   int `json:"total"`
	Edges   int `json:"edges"` // merged global coverage edges
	Retries int `json:"retries,omitempty"`
	// Poisoned lists streams newly poisoned this epoch, sorted.
	Poisoned []int        `json:"poisoned,omitempty"`
	Streams  []StreamInfo `json:"streams"`
}

// StreamInfo is one stream's barrier summary.
type StreamInfo struct {
	Stream   int  `json:"stream"`
	Ticks    int  `json:"ticks"`
	Total    int  `json:"total"` // mutants produced
	Crashes  int  `json:"crashes"`
	Edges    int  `json:"edges"` // private coverage edges
	Pool     int  `json:"pool,omitempty"`
	Poisoned bool `json:"poisoned,omitempty"`
	// Sched is the stream's scheduler posterior at the barrier. It is
	// summarized into the journal and console, not serialized raw.
	Sched *sched.State `json:"-"`
}

// CrashBucket is one unique crash signature's triage bucket,
// aggregated from crash events (hits count per-stream discoveries).
type CrashBucket struct {
	Signature   string `json:"sig"`
	Component   string `json:"component,omitempty"`
	Class       string `json:"class,omitempty"`
	Via         string `json:"via,omitempty"`
	Hits        int    `json:"hits"`
	FirstEpoch  int    `json:"first_epoch"`
	FirstStream int    `json:"first_stream"`
	FirstTick   int    `json:"first_tick"`
}

// MutatorYield aggregates one mutator's reward events.
type MutatorYield struct {
	Name    string `json:"name"`
	Rewards int    `json:"rewards"`
	Cov     int    `json:"cov"`
	Crash   int    `json:"crash"`
}

// RegisterMetrics pre-registers every flight_* family so the first
// metrics snapshot carries the full schema.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("flight_events_total", "kind")
	reg.Counter("flight_anomalies_total", "kind")
	reg.Gauge("flight_journal_bytes")
	reg.Counter("flight_journal_rotations_total")
	reg.Gauge("flight_sse_clients")
	reg.Counter("flight_sse_dropped_total")
}

// NewRecorder builds a recorder and, when the campaign starts fresh
// (cfg.Done == 0), writes the campaign header event.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1 << 16
	}
	cfg.Watchdogs = cfg.Watchdogs.withDefaults()
	r := &Recorder{
		cfg:     cfg,
		crashes: map[string]*CrashBucket{},
		yields:  map[string]*MutatorYield{},
		subs:    map[chan []byte]bool{},
	}
	RegisterMetrics(cfg.Registry)
	reg := cfg.Registry // nil-tolerant handles
	r.mEvents = reg.Counter("flight_events_total", "kind")
	r.mAnoms = reg.Counter("flight_anomalies_total", "kind")
	r.mBytes = reg.Gauge("flight_journal_bytes").With()
	r.mRot = reg.Counter("flight_journal_rotations_total").With()
	r.mClients = reg.Gauge("flight_sse_clients").With()
	r.mDropped = reg.Counter("flight_sse_dropped_total").With()
	if rw, ok := cfg.Journal.(*obs.RotatingWriter); ok && rw != nil {
		rw.OnRotate = r.mRot.Inc
	}
	for i := 0; i < cfg.Streams; i++ {
		r.streams = append(r.streams, &Stream{rec: r, id: i})
	}
	r.wd.init()
	if cfg.Done == 0 {
		r.mu.Lock()
		r.appendLocked(Event{Stream: -1, Kind: "campaign", Data: map[string]any{
			"seed": cfg.Seed, "streams": cfg.Streams, "total": cfg.TotalSteps,
		}})
		r.mu.Unlock()
	}
	return r
}

// Stream returns the emitter for one logical stream (nil when out of
// range or on a nil recorder — emissions then no-op).
func (r *Recorder) Stream(i int) *Stream {
	if r == nil || i < 0 || i >= len(r.streams) {
		return nil
	}
	return r.streams[i]
}

// EmitCampaign buffers a campaign-level event (stream -1) to be
// journaled at the next barrier. Safe for concurrent use — this is the
// entry point for hooks that fire off the stream goroutines, like
// breaker transitions.
func (r *Recorder) EmitCampaign(kind string, data map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.global = append(r.global, Event{Stream: -1, Kind: kind, Data: data})
	r.mu.Unlock()
}

// EndEpoch drains every stream's buffered events (in stream order),
// journals the barrier summaries, and runs the watchdogs. The engine
// calls it exactly once per epoch, after the coverage merge.
func (r *Recorder) EndEpoch(info EpochInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	quarantines := 0
	for _, s := range r.streams {
		for i := range s.buf {
			ev := s.buf[i]
			ev.Epoch = info.Epoch
			if ev.Kind == "quarantine" {
				quarantines++
			}
			r.noteLocked(ev)
			r.appendLocked(ev)
		}
		s.buf = s.buf[:0]
	}
	for _, ev := range r.global {
		ev.Epoch = info.Epoch
		r.appendLocked(ev)
	}
	r.global = r.global[:0]

	crashes := 0
	for _, si := range info.Streams {
		crashes += si.Crashes
	}
	for _, si := range info.Streams {
		data := map[string]any{"total": si.Total, "edges": si.Edges}
		if si.Crashes > 0 {
			data["crashes"] = si.Crashes
		}
		if si.Pool > 0 {
			data["pool"] = si.Pool
		}
		if si.Poisoned {
			data["poisoned"] = true
		}
		if top := schedTop(si.Sched, r.cfg.ArmNames, 3); len(top) > 0 {
			data["sched"] = top
		}
		r.appendLocked(Event{Epoch: info.Epoch, Stream: si.Stream,
			Tick: si.Ticks, Kind: "stream", Data: data})
	}
	ed := map[string]any{"done": info.Done, "total": info.Total, "edges": info.Edges}
	if crashes > 0 {
		ed["crashes"] = crashes
	}
	if info.Retries > 0 {
		ed["retries"] = info.Retries
	}
	if len(info.Poisoned) > 0 {
		ed["poisoned"] = info.Poisoned
	}
	r.appendLocked(Event{Epoch: info.Epoch, Stream: -1, Kind: "epoch", Data: ed})

	r.watchdogsLocked(info, quarantines)

	r.last = info
	r.epochs = info.Epoch
}

// Checkpoint journals one successful checkpoint write.
func (r *Recorder) Checkpoint(epoch, done, bytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.appendLocked(Event{Epoch: epoch, Stream: -1, Kind: "checkpoint",
		Data: map[string]any{"done": done, "bytes": bytes}})
	r.mu.Unlock()
}

// End journals campaign completion. Interrupted campaigns write no end
// event — the resumed run's completion provides it, keeping the
// concatenated journal identical to an uninterrupted one.
func (r *Recorder) End(done, edges, crashes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.appendLocked(Event{Epoch: r.epochs, Stream: -1, Kind: "end",
		Data: map[string]any{"done": done, "edges": edges, "crashes": crashes}})
	r.mu.Unlock()
}

// Events returns a copy of the in-memory event ring (oldest first;
// capped at Config.RingSize).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.ring...)
}

// Anomalies returns a copy of every watchdog detection so far.
func (r *Recorder) Anomalies() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.anomalies...)
}

// JournalErr returns the first journal write error (nil when every
// event landed or no journal is attached).
func (r *Recorder) JournalErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jerr
}

// appendLocked journals, rings, counts, and broadcasts one event.
// Callers hold r.mu.
func (r *Recorder) appendLocked(ev Event) {
	line, err := json.Marshal(&ev)
	if err != nil {
		return // undeterministic payloads never reach here by contract
	}
	if r.cfg.Journal != nil && r.jerr == nil {
		if _, werr := r.cfg.Journal.Write(append(line, '\n')); werr != nil {
			r.jerr = werr
		} else {
			r.written += int64(len(line) + 1)
			r.mBytes.Set(r.written)
		}
	}
	if len(r.ring) >= r.cfg.RingSize {
		n := copy(r.ring, r.ring[len(r.ring)-r.cfg.RingSize+1:])
		r.ring = r.ring[:n]
	}
	r.ring = append(r.ring, ev)
	r.mEvents.With(ev.Kind).Inc()
	for ch := range r.subs {
		select {
		case ch <- line:
		default:
			r.dropped++
			r.mDropped.Inc()
		}
	}
}

// Dropped returns how many events have been dropped on slow
// subscribers so far — the counter behind flight_sse_dropped_total,
// exposed so a daemon can surface per-job tap lossiness.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// DropSubscribers detaches and closes every live journal subscriber —
// the first rung of a disk-pressure shedding ladder: the per-subscriber
// buffers are the cheapest thing to give back. New subscriptions remain
// possible; gate them at the caller. Returns how many were dropped.
func (r *Recorder) DropSubscribers() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.subs)
	for ch := range r.subs {
		delete(r.subs, ch)
		close(ch)
	}
	r.mClients.Set(0)
	return n
}

// noteLocked updates the console aggregates from one drained stream
// event. Callers hold r.mu.
func (r *Recorder) noteLocked(ev Event) {
	switch ev.Kind {
	case "crash":
		sig, _ := ev.Data["sig"].(string)
		if sig == "" {
			return
		}
		b := r.crashes[sig]
		if b == nil {
			comp, _ := ev.Data["component"].(string)
			class, _ := ev.Data["class"].(string)
			via, _ := ev.Data["via"].(string)
			b = &CrashBucket{Signature: sig, Component: comp, Class: class,
				Via: via, FirstEpoch: ev.Epoch, FirstStream: ev.Stream,
				FirstTick: ev.Tick}
			r.crashes[sig] = b
			r.crashSigs = append(r.crashSigs, sig)
		}
		b.Hits++
	case "reward":
		name, _ := ev.Data["m"].(string)
		if name == "" {
			return
		}
		y := r.yields[name]
		if y == nil {
			y = &MutatorYield{Name: name}
			r.yields[name] = y
		}
		y.Rewards++
		if b, _ := ev.Data["cov"].(bool); b {
			y.Cov++
		}
		if b, _ := ev.Data["crash"].(bool); b {
			y.Crash++
		}
	}
}

// schedTop summarizes a posterior into its top-k arms by mean reward:
// [{"m": name, "picks": n, "mw": milli-mean}, …], ties broken by arm
// index. Returns nil for empty or unnamed posteriors.
func schedTop(st *sched.State, names []string, k int) []map[string]any {
	if st == nil || len(st.Picks) == 0 || len(names) != len(st.Picks) {
		return nil
	}
	var arms []int
	for i, p := range st.Picks {
		if p > 0 {
			arms = append(arms, i)
		}
	}
	if len(arms) == 0 {
		return nil
	}
	mean := func(i int) float64 { return st.Rewards[i] / float64(st.Picks[i]) }
	sort.SliceStable(arms, func(x, y int) bool {
		mx, my := mean(arms[x]), mean(arms[y])
		if mx != my {
			return mx > my
		}
		return arms[x] < arms[y]
	})
	if len(arms) > k {
		arms = arms[:k]
	}
	out := make([]map[string]any, 0, len(arms))
	for _, i := range arms {
		out = append(out, map[string]any{
			"m":     names[i],
			"picks": st.Picks[i],
			"mw":    int64(math.Round(1000 * mean(i))),
		})
	}
	return out
}
