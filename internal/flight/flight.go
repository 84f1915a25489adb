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
	// the running report, console and watchdogs still work). An
	// *obs.RotatingWriter additionally feeds
	// flight_journal_rotations_total.
	Journal io.Writer
	// ArmNames are the mutator names backing scheduler arm indices, in
	// arm order — used to label posterior summaries. May be nil.
	ArmNames []string
	// Watchdogs tunes the anomaly detectors.
	Watchdogs WatchdogConfig
	// OnAnomaly, when set, receives each watchdog detection as it is
	// journaled — the hook that lets a supervisor turn observe-only
	// watchdogs into corrective action. It runs on the barrier goroutine
	// with the recorder's lock held: it must be fast and must not call
	// back into the Recorder. RestoreWatchdogs does not fire it: the
	// detections in the prefix it replays were journaled, and handed to
	// the hook, by the run that wrote them.
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
	written int64
	jerr    error
	// last is the latest barrier: the console's progress block, and the
	// scheduler posteriors (which the journal does not carry) that the
	// starvation watchdog reads while its epoch event is folded.
	last EpochInfo
	// rep is the running report: every journaled event is folded into
	// it, and the console and Report read it.
	rep Report

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
	r := &Recorder{
		cfg:  cfg,
		rep:  Report{Seed: cfg.Seed, Streams: cfg.Streams, Total: cfg.TotalSteps},
		subs: map[chan []byte]bool{},
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

// EndEpoch drains every stream's buffered events (in stream order) and
// journals the barrier summaries; folding the epoch event runs the
// watchdogs. The engine calls it exactly once per epoch, after the
// coverage merge.
func (r *Recorder) EndEpoch(info EpochInfo) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = info

	for _, s := range r.streams {
		for i := range s.buf {
			ev := s.buf[i]
			ev.Epoch = info.Epoch
			r.appendLocked(ev)
		}
		s.buf = s.buf[:0]
	}

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
}

// CheckpointEvent is the journal's confirmation of one successful
// checkpoint write.
func CheckpointEvent(epoch, done, bytes int) Event {
	return Event{Epoch: epoch, Stream: -1, Kind: "checkpoint",
		Data: map[string]any{"done": done, "bytes": bytes}}
}

// EndEvent is the journal's campaign-completion event.
func EndEvent(epoch, done, edges, crashes int) Event {
	return Event{Epoch: epoch, Stream: -1, Kind: "end",
		Data: map[string]any{"done": done, "edges": edges, "crashes": crashes}}
}

// Checkpoint journals one successful checkpoint write.
func (r *Recorder) Checkpoint(epoch, done, bytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.appendLocked(CheckpointEvent(epoch, done, bytes))
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
	r.appendLocked(EndEvent(r.last.Epoch, done, edges, crashes))
	r.mu.Unlock()
}

// Report returns the campaign report folded from every event this
// recorder journaled, and from the prefix RestoreWatchdogs replayed:
// what BuildReport makes of the whole journal.
func (r *Recorder) Report() *Report {
	if r == nil {
		return &Report{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rep.sorted()
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

// EncodeLine renders one event as its journal line, trailing newline
// included. It is the journal's only encoder: encoding/json sorts Data's
// keys, so equal events encode to equal bytes.
func EncodeLine(ev Event) ([]byte, error) {
	line, err := json.Marshal(&ev)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// DecodeLine parses one journal line, the inverse of EncodeLine.
func DecodeLine(line []byte) (Event, error) {
	var ev Event
	err := json.Unmarshal(line, &ev)
	return ev, err
}

// appendLocked journals, counts, broadcasts and folds one event.
// Callers hold r.mu.
func (r *Recorder) appendLocked(ev Event) {
	line, err := EncodeLine(ev)
	if err != nil {
		return // undeterministic payloads never reach here by contract
	}
	if r.cfg.Journal != nil && r.jerr == nil {
		if _, werr := r.cfg.Journal.Write(line); werr != nil {
			r.jerr = werr
		} else {
			r.written += int64(len(line))
			r.mBytes.Set(r.written)
		}
	}
	r.mEvents.With(ev.Kind).Inc()
	for ch := range r.subs {
		select {
		case ch <- line[:len(line)-1]:
		default:
			r.dropped++
			r.mDropped.Inc()
		}
	}
	// Last, so any anomaly the fold journals follows this event
	// everywhere, the subscribers' feed included.
	r.foldLocked(ev, true)
}

// foldLocked is the recorder's one fold over its journal: each event it
// appends, and each event RestoreWatchdogs replays, passes through here
// into the running report and the watchdogs' memory. Only live folds
// (emit) journal detections; a replay finds them already in the journal
// it reads. Callers hold r.mu.
func (r *Recorder) foldLocked(ev Event, emit bool) {
	r.rep.fold(ev)
	r.watchLocked(ev, emit)
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

// schedTop summarizes a posterior into its top-k arms by mean reward:
// [{"m": name, "picks": n, "mw": milli-mean}, …], ties broken by arm
// index. Returns nil for empty or unnamed posteriors.
func schedTop(st *sched.State, names []string, k int) []map[string]any {
	if st == nil || len(st.Picks) == 0 || len(names) != len(st.Picks) {
		return nil
	}
	arms := topArms(st.Picks, st.Rewards, k)
	if len(arms) == 0 {
		return nil
	}
	out := make([]map[string]any, 0, len(arms))
	for _, i := range arms {
		out = append(out, map[string]any{
			"m":     names[i],
			"picks": st.Picks[i],
			"mw":    int64(math.Round(1000 * st.Rewards[i] / float64(st.Picks[i]))),
		})
	}
	return out
}

// topArms returns up to k of the picked arms, by mean reward
// (rewards/picks) descending, ties broken by arm index.
func topArms(picks []int64, rewards []float64, k int) []int {
	var arms []int
	for i, p := range picks {
		if p > 0 {
			arms = append(arms, i)
		}
	}
	mean := func(i int) float64 { return rewards[i] / float64(picks[i]) }
	sort.SliceStable(arms, func(x, y int) bool {
		mx, my := mean(arms[x]), mean(arms[y])
		if mx != my {
			return mx > my
		}
		return arms[x] < arms[y]
	})
	return arms[:min(k, len(arms))]
}
