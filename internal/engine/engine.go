// Package engine runs parallel fuzzing campaigns. It decouples the
// campaign's *logical* shape — a fixed number of deterministic streams,
// each with its own RNG, corpus, and coverage view — from the *physical*
// worker fleet executing them, so a fixed seed yields the identical
// merged crash set and stats at any worker count and any goroutine
// interleaving, while throughput still scales with workers.
//
// The trick is epoch-based coverage sync: during an epoch every stream
// fuzzes against a frozen private view of global coverage (seeded from
// the last barrier) and records its discoveries in a private delta.
// At the barrier the deltas merge into the global map in stream order,
// every view is refreshed, and only then may the next epoch start.
// Nothing a stream does mid-epoch can observe another stream's
// concurrent activity, which is exactly what makes the schedule
// irrelevant to the outcome.
//
// Barriers are also where checkpoints happen: the engine only observes
// cancellation between epochs, so a snapshot always captures a clean
// epoch boundary and resuming re-executes the remaining epochs
// identically to an uninterrupted run.
//
// Stream execution is supervised: a panic in a worker is caught in the
// executing goroutine and never takes down the fleet. A task that dies
// before its first step of the epoch mutated nothing and is simply
// re-dispatched (up to TaskRetries — this is how recoverable chaos
// faults stay byte-identical to a fault-free run); a task that dies
// mid-step has corrupted its stream's trajectory, so the stream is
// poisoned — retired from scheduling, recorded in the checkpoint — while
// the remaining streams keep fuzzing.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/obs"
)

// Worker is one fuzzing stream's executor. Both fuzz.MuCFuzz and
// fuzz.MacroFuzzer satisfy it.
type Worker interface {
	Name() string
	Step()
	Stats() *fuzz.Stats
	// Corpus and SetCorpus expose the program pool for checkpointing.
	Corpus() []string
	SetCorpus([]string)
}

// Factory builds the worker for one stream. rng is the stream's private
// deterministic generator (its state is checkpointed); cov is the
// stream's epoch-local coverage view — pass it as the shared sink when
// building coverage-sharing workers (fuzz.NewMacroFuzzer), ignore it
// for self-guided ones (fuzz.NewMuCFuzz).
type Factory func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) Worker

// Config shapes a campaign. Streams, StepsPerEpoch, and Seed are part
// of the campaign's identity — two runs agreeing on them (and
// TotalSteps) produce identical results at any Workers value.
type Config struct {
	// Streams is the number of logical fuzzing streams (default 16).
	Streams int
	// Workers is the number of goroutines executing streams (default
	// GOMAXPROCS, clamped to Streams). Affects throughput only.
	Workers int
	// StepsPerEpoch is how many steps each stream runs between coverage
	// barriers (default 32). Smaller epochs propagate coverage faster;
	// larger ones synchronize less.
	StepsPerEpoch int
	// TotalSteps is the campaign budget, summed across streams.
	TotalSteps int
	// Seed derives every stream's RNG.
	Seed int64
	// CheckpointPath, when set, makes the engine write an atomic
	// snapshot every CheckpointEvery epochs (default: every epoch), on
	// cancellation, and at completion.
	CheckpointPath string
	// CheckpointEvery is the epoch interval between periodic snapshots.
	CheckpointEvery int
	// Registry receives engine telemetry (nil disables it).
	Registry *obs.Registry
	// Flight, when set, receives the campaign's structured event journal:
	// the engine emits one barrier summary per epoch (stream progress,
	// scheduler posteriors, retries, poisonings), a checkpoint event per
	// successful snapshot write, and an end event at completion. Stream
	// workers are attached separately (fuzzer AttachFlight in the
	// factory). Everything emitted is keyed by logical time only, so the
	// journal is byte-identical at any worker count.
	Flight *flight.Recorder
	// OnEpoch, when set, is called after every barrier with the steps
	// completed so far and the total budget.
	OnEpoch func(done, total int)
	// OnStreamStart, when set, is called in the executing worker
	// goroutine right before a stream's first step of the epoch, inside
	// the supervision scope. The chaos harness injects worker panics
	// here; attempt counts re-dispatches of the same (epoch, stream)
	// task so injectors can fail only the first try.
	OnStreamStart func(epoch, stream, attempt int)
	// CheckpointTransform, when set, intercepts the serialized snapshot
	// just before each write attempt — the chaos harness tears or fails
	// writes here. An error counts as a failed write attempt.
	CheckpointTransform func(data []byte) ([]byte, error)
	// TaskRetries bounds re-dispatches of a stream task whose worker
	// panicked before stepping (default 2). Panics after the first step
	// are never retried — the stream is poisoned instead.
	TaskRetries int
	// CheckpointRetries bounds write attempts per checkpoint (default 3).
	CheckpointRetries int
}

func (cfg *Config) normalize() {
	if cfg.Streams <= 0 {
		cfg.Streams = 16
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > cfg.Streams {
		cfg.Workers = cfg.Streams
	}
	if cfg.StepsPerEpoch <= 0 {
		cfg.StepsPerEpoch = 32
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
	if cfg.TaskRetries <= 0 {
		cfg.TaskRetries = 2
	}
	if cfg.CheckpointRetries <= 0 {
		cfg.CheckpointRetries = 3
	}
}

// view is a stream's private window onto global coverage during one
// epoch: merged = global-at-last-barrier ∪ own discoveries (the
// admission signal), delta = own discoveries only (what the barrier
// publishes). No locks — only the owning stream touches it mid-epoch.
type view struct {
	merged *cover.Map
	delta  *cover.Map
}

// MergeIfNew implements fuzz.CoverageSink against the frozen view.
func (v *view) MergeIfNew(m *cover.Map) bool {
	if !v.merged.HasNew(m) {
		return false
	}
	v.merged.Merge(m)
	v.delta.Merge(m)
	return true
}

// Campaign is one parallel fuzzing campaign.
type Campaign struct {
	cfg     Config
	workers []Worker
	// sources are the engine-owned stream RNG states (checkpointed).
	sources []*mix64
	views   []*view
	global  *cover.Map
	epoch   int
	done    int
	// poisoned maps retired streams to why they died; their planned
	// steps still count toward the budget so the campaign terminates.
	poisoned map[int]PoisonInfo
	// ckptDone is the done-count of the last successful checkpoint (-1
	// before any): writing the same barrier twice would rotate a real
	// generation out of .prev for an identical copy.
	ckptDone int
	// ended latches the flight end event so repeated RunSlice calls on
	// a completed campaign never journal a second one.
	ended bool
	// slice is the supervision report for the RunSlice call in progress
	// (or the last completed one); see SliceReport.
	slice SliceReport
	// locks are the single-writer guards on the campaign's checkpoint
	// state (see AcquireLock); lockErr defers a New-time acquisition
	// failure to the first RunSlice, which has an error to return.
	locks   []*Lock
	lockErr error

	reg          *obs.Registry
	mEpochSec    *obs.Histogram
	mSyncSec     *obs.Histogram
	mQueue       *obs.Gauge
	mStepsDone   *obs.Gauge
	mCkptBytes   *obs.Gauge
	mEpochs      *obs.Counter
	mCkpts       *obs.Counter
	mCkptFails   *obs.Counter
	mTaskRetries *obs.Counter
	mPoisoned    *obs.Counter
}

// PoisonInfo records why and when a stream was retired.
type PoisonInfo struct {
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason"`
}

// New builds a campaign, creating one worker per stream via factory.
// A campaign with a CheckpointPath takes the path's single-writer lock
// (see AcquireLock) so two processes cannot corrupt the same state; an
// acquisition failure surfaces as ErrLocked from the first Run or
// RunSlice call (New itself has no error to return).
func New(cfg Config, factory Factory) *Campaign {
	cfg.normalize()
	c := &Campaign{cfg: cfg, global: cover.NewMap(), poisoned: map[int]PoisonInfo{}, ckptDone: -1}
	c.acquireLocks(cfg.CheckpointPath)
	c.instrument()
	for i := 0; i < cfg.Streams; i++ {
		src := &mix64{state: streamSeed(cfg.Seed, i)}
		v := &view{merged: cover.NewMap(), delta: cover.NewMap()}
		c.sources = append(c.sources, src)
		c.views = append(c.views, v)
		c.workers = append(c.workers, factory(i, rand.New(src), v))
	}
	return c
}

// RegisterMetrics pre-registers every engine metric family (including
// event-gated ones like resume fallbacks and triage reductions), so
// metric snapshots and the METRICS.md reference see the full engine
// surface from campaign start. Idempotent; nil registry is a no-op.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Histogram("engine_epoch_seconds", nil)
	reg.Histogram("engine_sync_seconds", obs.ExpBuckets(1e-6, 4, 12))
	reg.Gauge("engine_queue_depth")
	reg.Gauge("engine_steps_done")
	reg.Gauge("engine_checkpoint_bytes")
	reg.Counter("engine_epochs_total")
	reg.Counter("engine_checkpoints_total")
	reg.Counter("engine_checkpoint_failures_total")
	reg.Counter("engine_task_retries_total")
	reg.Counter("engine_streams_poisoned_total")
	reg.Counter("engine_checkpoint_fallbacks_total")
	reg.Counter("triage_reduced_total")
}

func (c *Campaign) instrument() {
	reg := c.cfg.Registry // nil registry → every handle no-ops
	c.reg = reg
	RegisterMetrics(reg)
	c.mEpochSec = reg.Histogram("engine_epoch_seconds", nil).With()
	c.mSyncSec = reg.Histogram("engine_sync_seconds", obs.ExpBuckets(1e-6, 4, 12)).With()
	c.mQueue = reg.Gauge("engine_queue_depth").With()
	c.mStepsDone = reg.Gauge("engine_steps_done").With()
	c.mCkptBytes = reg.Gauge("engine_checkpoint_bytes").With()
	c.mEpochs = reg.Counter("engine_epochs_total").With()
	c.mCkpts = reg.Counter("engine_checkpoints_total").With()
	c.mCkptFails = reg.Counter("engine_checkpoint_failures_total").With()
	c.mTaskRetries = reg.Counter("engine_task_retries_total").With()
	c.mPoisoned = reg.Counter("engine_streams_poisoned_total").With()
}

// Done returns the steps completed so far.
func (c *Campaign) Done() int { return c.done }

// Config returns the campaign's normalized configuration (defaults
// resolved, snapshot fields inherited on resume).
func (c *Campaign) Config() Config { return c.cfg }

// Epoch returns the number of completed epochs.
func (c *Campaign) Epoch() int { return c.epoch }

// Workers exposes the stream workers (read-only use between runs).
func (c *Campaign) Workers() []Worker { return c.workers }

// CoverageSnapshot returns a copy of the merged global coverage map.
func (c *Campaign) CoverageSnapshot() *cover.Map { return c.global.Clone() }

// Poisoned returns a copy of the retired-stream records.
func (c *Campaign) Poisoned() map[int]PoisonInfo {
	out := make(map[int]PoisonInfo, len(c.poisoned))
	for s, info := range c.poisoned {
		out[s] = info
	}
	return out
}

// ErrInterrupted reports that Run stopped at an epoch barrier because
// its context was cancelled. If the campaign has a checkpoint path the
// snapshot on disk resumes exactly where it left off.
var ErrInterrupted = errors.New("engine: campaign interrupted")

// Run executes epochs until the budget is spent or ctx is cancelled.
// Cancellation is only observed at barriers: the in-flight epoch always
// completes and is checkpointed, which is what makes interrupt+resume
// equal an uninterrupted run.
func (c *Campaign) Run(ctx context.Context) error {
	_, err := c.RunSlice(ctx, 0)
	return err
}

// Finished reports whether the campaign's budget is spent.
func (c *Campaign) Finished() bool { return c.done >= c.cfg.TotalSteps }

// SliceReport summarizes the supervision-relevant outcomes of the most
// recent RunSlice call: epochs completed, streams newly poisoned, task
// retries granted, and checkpoint write failures (with the last write
// error). A daemon's supervision layer reads it between slices to
// decide strikes and disk-pressure transitions without parsing logs.
type SliceReport struct {
	Epochs             int
	Poisoned           int
	Retries            int
	CheckpointFailures int
	CheckpointErr      error
}

// LastSlice returns the report for the most recent RunSlice call. Only
// the goroutine driving the campaign may call it, and only while the
// campaign is quiescent (between slices).
func (c *Campaign) LastSlice() SliceReport { return c.slice }

// SetCheckpointEvery retunes the periodic snapshot cadence (n < 1
// means every epoch). Only the goroutine driving the campaign may call
// it, between slices — the daemon's disk-pressure governor widens the
// interval here when checkpoint writes start failing.
func (c *Campaign) SetCheckpointEvery(n int) {
	if n < 1 {
		n = 1
	}
	c.cfg.CheckpointEvery = n
}

// RunSlice executes up to maxEpochs epochs (0 or negative: until the
// budget is spent) and pauses at the next barrier. It returns
// finished=true once the budget is spent, after writing the final
// checkpoint and the flight end event. A paused campaign is exactly a
// quiescent one — every stream sits at the barrier, the periodic
// checkpoint cadence has run — so a caller may interleave slices of
// many campaigns over one goroutine fleet (pause-at-barrier
// preemption) without perturbing any campaign's results: per-campaign
// outcomes depend only on seed, streams, and budget, never on when its
// epochs are scheduled.
func (c *Campaign) RunSlice(ctx context.Context, maxEpochs int) (finished bool, err error) {
	c.slice = SliceReport{}
	if c.lockErr != nil {
		return false, c.lockErr
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ran := 0
	for c.done < c.cfg.TotalSteps {
		if ctx.Err() != nil {
			if err := c.Checkpoint(); err != nil {
				c.slice.CheckpointFailures++
				c.slice.CheckpointErr = err
				c.Unlock()
				return false, errors.Join(ErrInterrupted, err)
			}
			c.Unlock()
			return false, ErrInterrupted
		}
		if maxEpochs > 0 && ran >= maxEpochs {
			return false, nil
		}
		c.runEpoch()
		ran++
		c.slice.Epochs++
		if c.cfg.OnEpoch != nil {
			c.cfg.OnEpoch(c.done, c.cfg.TotalSteps)
		}
		if c.cfg.CheckpointPath != "" && c.epoch%c.cfg.CheckpointEvery == 0 {
			// A periodic snapshot failing is not worth killing a healthy
			// campaign over: the failure is counted and the next interval
			// (or the final snapshot below) tries again.
			if err := c.Checkpoint(); err != nil {
				c.mCkptFails.Inc()
				c.slice.CheckpointFailures++
				c.slice.CheckpointErr = err
			}
		}
	}
	if c.cfg.CheckpointPath != "" {
		// Final snapshot: resumable later with a larger TotalSteps.
		if err := c.Checkpoint(); err != nil {
			c.slice.CheckpointFailures++
			c.slice.CheckpointErr = err
			c.Unlock()
			return false, err
		}
	}
	if rec := c.cfg.Flight; rec != nil && !c.ended {
		agg := c.MergedStats()
		rec.End(c.done, agg.Coverage.Count(), len(agg.Crashes))
	}
	c.ended = true
	c.Unlock()
	return true, nil
}

// acquireLocks takes the single-writer lock on every distinct non-empty
// path, recording the first failure for RunSlice to surface.
func (c *Campaign) acquireLocks(paths ...string) {
	seen := map[string]bool{}
	for _, p := range paths {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		lk, err := AcquireLock(p)
		if err != nil {
			c.lockErr = err
			return
		}
		c.locks = append(c.locks, lk)
	}
}

// LockErr reports a deferred lock-acquisition failure from New (Resume
// surfaces the same condition as its own error). Callers that must know
// before the first RunSlice — a daemon admitting a job — check this.
func (c *Campaign) LockErr() error { return c.lockErr }

// Unlock releases the campaign's checkpoint locks. RunSlice calls it on
// every completing or failing return; a coordinator abandoning a paused
// campaign (cancellation, shutdown) calls it directly. Idempotent.
func (c *Campaign) Unlock() {
	for _, lk := range c.locks {
		lk.Release()
	}
	c.locks = nil
}

// epochPlan returns each stream's step count for the epoch starting at
// global step `done`. A pure function of the campaign shape and `done`,
// so a resumed campaign re-derives the identical remaining schedule.
func epochPlan(streams, stepsPerEpoch, totalSteps, done int) []int {
	n := streams * stepsPerEpoch
	if rem := totalSteps - done; n > rem {
		n = rem
	}
	plan := make([]int, streams)
	base, extra := n/streams, n%streams
	for s := range plan {
		plan[s] = base
		if s < extra {
			plan[s]++
		}
	}
	return plan
}

// streamOutcome reports how one supervised stream task ended.
type streamOutcome struct {
	stream   int
	stepped  int // steps executed before completion or panic
	panicked bool
	panicVal any
}

// runEpoch executes one epoch: runnable (non-poisoned) streams are
// dealt to worker goroutines through a channel (any interleaving is
// fine — each stream only touches its own state and view), panicked
// tasks are retried or poisoned, then the barrier merges deltas in
// stream order and refreshes every view from the new global map.
func (c *Campaign) runEpoch() {
	//detlint:allow wallclock epoch latency telemetry (engine_epoch_seconds); never feeds campaign decisions
	epochStart := time.Now()
	plan := epochPlan(c.cfg.Streams, c.cfg.StepsPerEpoch, c.cfg.TotalSteps, c.done)

	var pending []int
	for s, n := range plan {
		if n > 0 && !c.isPoisoned(s) {
			pending = append(pending, s)
		}
	}
	attempts := make(map[int]int)
	retries := 0
	for len(pending) > 0 {
		var retry []int
		for _, out := range c.dispatch(pending, plan, attempts) {
			if !out.panicked {
				continue
			}
			if out.stepped == 0 && attempts[out.stream] < c.cfg.TaskRetries {
				// Died before its first step: no stream state was
				// touched, so re-dispatching replays it exactly.
				attempts[out.stream]++
				c.mTaskRetries.Inc()
				retries++
				c.slice.Retries++
				retry = append(retry, out.stream)
				continue
			}
			c.poison(out.stream, out.panicVal)
		}
		sort.Ints(retry)
		pending = retry
	}

	//detlint:allow wallclock barrier-merge latency telemetry (engine_sync_seconds); never feeds campaign decisions
	syncStart := time.Now()
	for _, v := range c.views {
		c.global.Merge(v.delta)
	}
	for _, v := range c.views {
		v.merged = c.global.Clone()
		v.delta.Reset()
	}
	c.mSyncSec.Observe(time.Since(syncStart).Seconds()) //detlint:allow wallclock observes the sync latency histogram only

	// Every planned step counts as spent budget — including a poisoned
	// stream's forfeited remainder — so the campaign always terminates.
	for _, n := range plan {
		c.done += n
	}
	c.epoch++
	c.mEpochs.Inc()
	c.mStepsDone.Set(int64(c.done))
	c.mEpochSec.Observe(time.Since(epochStart).Seconds()) //detlint:allow wallclock observes the epoch latency histogram only
	c.emitBarrier(retries)
}

// emitBarrier publishes the completed epoch to the flight recorder:
// per-stream progress (with scheduler posteriors and pool sizes where
// the worker exposes them), merged coverage, retries, and the
// cumulative poisoned set. Runs single-threaded between epochs, so
// everything it reads is quiescent.
func (c *Campaign) emitBarrier(retries int) {
	rec := c.cfg.Flight
	if rec == nil {
		return
	}
	info := flight.EpochInfo{
		Epoch: c.epoch, Done: c.done, Total: c.cfg.TotalSteps, Retries: retries,
	}
	// Merged edges must include self-guided streams' private maps
	// (μCFuzz never publishes into the global map).
	agg := cover.NewMap()
	agg.Merge(c.global)
	for s, w := range c.workers {
		st := w.Stats()
		si := flight.StreamInfo{
			Stream: s, Ticks: st.Ticks, Total: st.Total,
			Crashes: len(st.Crashes), Edges: st.Coverage.Count(),
			Poisoned: c.isPoisoned(s),
		}
		if pw, ok := w.(interface{ PoolSize() int }); ok {
			si.Pool = pw.PoolSize()
		}
		if sw, ok := w.(SchedWorker); ok {
			si.Sched = sw.SchedState()
		}
		agg.Merge(st.Coverage)
		info.Streams = append(info.Streams, si)
	}
	info.Edges = agg.Count()
	for s := range c.poisoned {
		info.Poisoned = append(info.Poisoned, s)
	}
	sort.Ints(info.Poisoned)
	rec.EndEpoch(info)
}

// dispatch runs one round of stream tasks across the worker fleet and
// collects every task's outcome.
func (c *Campaign) dispatch(streams []int, plan []int, attempts map[int]int) []streamOutcome {
	c.mQueue.Set(int64(len(streams)))
	tasks := make(chan int)
	results := make(chan streamOutcome, len(streams))
	workers := c.cfg.Workers
	if workers > len(streams) {
		workers = len(streams)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range tasks {
				results <- c.runStream(s, plan[s], attempts[s])
				c.mQueue.Add(-1)
			}
		}()
	}
	for _, s := range streams {
		tasks <- s
	}
	close(tasks)
	wg.Wait()
	close(results)
	outs := make([]streamOutcome, 0, len(streams))
	for out := range results {
		outs = append(outs, out)
	}
	return outs
}

// runStream executes one stream's planned steps under supervision: a
// panic (from the worker, a mutator, or the chaos hook) is captured
// instead of unwinding the fleet.
func (c *Campaign) runStream(s, n, attempt int) (out streamOutcome) {
	out.stream = s
	defer func() {
		if r := recover(); r != nil {
			out.panicked = true
			out.panicVal = r
		}
	}()
	if c.cfg.OnStreamStart != nil {
		c.cfg.OnStreamStart(c.epoch, s, attempt)
	}
	wkr := c.workers[s]
	for i := 0; i < n; i++ {
		wkr.Step()
		out.stepped++
	}
	return out
}

func (c *Campaign) isPoisoned(s int) bool {
	_, ok := c.poisoned[s]
	return ok
}

// poison retires a stream whose worker died mid-step. Its accumulated
// stats and corpus stay merged into campaign results; it just stops
// being scheduled.
func (c *Campaign) poison(s int, val any) {
	c.poisoned[s] = PoisonInfo{Epoch: c.epoch, Reason: fmt.Sprintf("%v", val)}
	c.mPoisoned.Inc()
	c.slice.Poisoned++
}

// MergedStats folds every stream's accounting into one Stats: totals
// add, crashes union with the earliest discovery winning (ties go to
// the lower stream — streams merge in order), coverage is the global
// map plus any self-guided streams' private maps.
func (c *Campaign) MergedStats() *fuzz.Stats {
	agg := fuzz.NewStats("campaign")
	for _, w := range c.workers {
		agg.MergeFrom(w.Stats())
	}
	agg.Coverage.Merge(c.global)
	return agg
}
