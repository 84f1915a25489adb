// Package fuzz implements the paper's coverage-guided fuzzers: μCFuzz
// (Algorithm 1), the long-running macro fuzzer with its engineering
// enhancements (Havoc, compiler-flag sampling, shared coverage, resource
// limits), and the crash bookkeeping (dedup by top-two stack frames)
// shared by every evaluated technique.
package fuzz

import (
	"math/rand"
	"sort"
	"strings"
	"sync"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
)

// CrashInfo records the first discovery of a unique crash.
type CrashInfo struct {
	Report    compilersim.CrashReport
	FirstTick int
	// Input is the crashing program (kept for triage).
	Input string
	// Via names the mutator or generator that produced the input.
	Via string
}

// Stats is the common accounting every fuzzer maintains. One "tick" is
// one compiler invocation — the evaluation's virtual clock.
type Stats struct {
	Name string
	// Total and Compilable mutant counts (Table 5).
	Total      int
	Compilable int
	// StaticRejects counts mutants the static filter (the compiler's
	// front end, classified by mutcheck) discarded before they consumed
	// a compiler tick (subset of Total - Compilable).
	StaticRejects int
	// Ticks consumed so far.
	Ticks int
	// Panics counts mutator applications the supervisor recovered from
	// a panic; FuelExhausted counts applications the μAST fuel watchdog
	// cut off. Both feed the quarantine and neither consumes a tick.
	Panics        int
	FuelExhausted int
	// Crashes maps signature -> first-discovery info (Figures 8, 9;
	// Table 4).
	Crashes map[string]*CrashInfo
	// Coverage is the cumulative edge map (Figure 7).
	Coverage *cover.Map

	// Observability handles, resolved once by Instrument (all nil when
	// telemetry is off, so Record stays allocation-free).
	obsTicks         *obs.Counter
	obsMutants       *obs.CounterVec
	obsCrashes       *obs.Counter
	obsEdges         *obs.Gauge
	obsStaticRejects *obs.CounterVec
	obsPanics        *obs.CounterVec
	obsFuel          *obs.CounterVec
}

// NewStats returns empty accounting for a named fuzzer.
func NewStats(name string) *Stats {
	return &Stats{Name: name, Crashes: map[string]*CrashInfo{},
		Coverage: cover.NewMap()}
}

// Instrument attaches live telemetry: every Record updates
// compile_ticks, mutants_total{mutator,outcome},
// crashes_unique_total{fuzzer}, and coverage_edges{fuzzer}. A nil
// registry leaves the stats uninstrumented.
func (s *Stats) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsTicks = reg.Counter("compile_ticks").With()
	s.obsMutants = reg.Counter("mutants_total", "mutator", "outcome")
	s.obsCrashes = reg.Counter("crashes_unique_total", "fuzzer").With(s.Name)
	s.obsEdges = reg.Gauge("coverage_edges", "fuzzer").With(s.Name)
	s.obsStaticRejects = reg.Counter("static_rejects_total", "check")
	s.obsPanics = reg.Counter("mutator_panics_total", "mutator")
	s.obsFuel = reg.Counter("mutator_fuel_exhausted_total", "mutator")
}

// resultOutcome labels one compilation for mutants_total.
func resultOutcome(res compilersim.Result) string {
	switch {
	case res.OK:
		return "ok"
	case res.Hang:
		return "hang"
	case res.Crash != nil:
		return "crash"
	default:
		return "reject"
	}
}

// primaryMutator reduces a Havoc chain ("CopyExpr+DuplicateBranch") to
// its first mutator, bounding mutants_total's label cardinality.
func primaryMutator(via string) string {
	if i := strings.IndexByte(via, '+'); i >= 0 {
		return via[:i]
	}
	return via
}

// Record books one compilation outcome. Returns true when the input
// covered new edges.
func (s *Stats) Record(src, via string, res compilersim.Result) bool {
	s.Total++
	s.Ticks++
	if res.OK {
		s.Compilable++
	}
	s.obsTicks.Inc()
	if s.obsMutants != nil {
		s.obsMutants.With(primaryMutator(via), resultOutcome(res)).Inc()
	}
	if res.Crash != nil {
		sig := res.Crash.Signature()
		if _, dup := s.Crashes[sig]; !dup {
			s.Crashes[sig] = &CrashInfo{
				Report:    *res.Crash,
				FirstTick: s.Ticks,
				Input:     src,
				Via:       via,
			}
			s.obsCrashes.Inc()
		}
	}
	isNew := s.Coverage.HasNew(res.Coverage)
	s.Coverage.Merge(res.Coverage)
	if isNew {
		s.obsEdges.Set(int64(s.Coverage.Count()))
	}
	return isNew
}

// RecordStaticReject books one mutant the static analysis discarded
// before compilation. The mutant counts toward Total (it was produced)
// but consumes no compiler tick — that is the saving being measured.
func (s *Stats) RecordStaticReject(via, check string) {
	s.Total++
	s.StaticRejects++
	if s.obsMutants != nil {
		s.obsMutants.With(primaryMutator(via), "static-reject").Inc()
	}
	if s.obsStaticRejects != nil {
		s.obsStaticRejects.With(check).Inc()
	}
}

// RecordMutatorFault books one supervised mutator application that
// ended in a recovered panic (or, with fuel true, a fuel-watchdog cut).
// The offense consumes no tick — the mutant was never produced.
func (s *Stats) RecordMutatorFault(via string, fuel bool) {
	if fuel {
		s.FuelExhausted++
		if s.obsFuel != nil {
			s.obsFuel.With(primaryMutator(via)).Inc()
		}
		return
	}
	s.Panics++
	if s.obsPanics != nil {
		s.obsPanics.With(primaryMutator(via)).Inc()
	}
}

// MergeFrom folds another fuzzer's accounting into s: totals add up,
// crashes union with the earliest discovery winning, coverage maps
// merge. This is the one tested aggregation path the macro fuzzer's
// per-worker stats flow through.
func (s *Stats) MergeFrom(o *Stats) {
	if o == nil {
		return
	}
	s.Total += o.Total
	s.Compilable += o.Compilable
	s.StaticRejects += o.StaticRejects
	s.Ticks += o.Ticks
	s.Panics += o.Panics
	s.FuelExhausted += o.FuelExhausted
	for sig, c := range o.Crashes {
		if prev, ok := s.Crashes[sig]; !ok || c.FirstTick < prev.FirstTick {
			s.Crashes[sig] = c
		}
	}
	if o.Coverage != nil {
		s.Coverage.Merge(o.Coverage)
	}
}

// CompilableRatio returns the Table 5 ratio in percent.
func (s *Stats) CompilableRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Compilable) / float64(s.Total)
}

// UniqueCrashes returns the crash count.
func (s *Stats) UniqueCrashes() int { return len(s.Crashes) }

// CrashTimeline returns (tick, cumulative unique crashes) points sorted
// by tick (Figure 9).
func (s *Stats) CrashTimeline() [][2]int {
	ticks := make([]int, 0, len(s.Crashes))
	for _, c := range s.Crashes {
		ticks = append(ticks, c.FirstTick)
	}
	sort.Ints(ticks)
	out := make([][2]int, len(ticks))
	for i, t := range ticks {
		out[i] = [2]int{t, i + 1}
	}
	return out
}

// Fuzzer is one technique under evaluation: each Step produces and
// compiles exactly one test program.
type Fuzzer interface {
	Name() string
	Step()
	Stats() *Stats
}

// DefaultUncheckedRate calibrates mutator fallibility. The paper's 118
// LLM-synthesized mutators are validated against unit tests but are not
// sound: 26-28% of μCFuzz's mutants fail to compile (Table 5). Our Go
// reimplementations are more defensive (<1% invalid output), so the
// fuzzers emulate the original imperfection by following a fraction of
// mutations with an *unchecked* rewrite — a copy of one expression over
// another with every semantic check skipped, exactly the class of error
// the paper's refinement loop kept fixing (Table 1 row #6).
const DefaultUncheckedRate = 0.68

// DefaultQuarantine tunes the fuzzers' mutator quarantine: three
// offenses bench a mutator for 512 steps, after which it is paroled
// with a clean record.
func DefaultQuarantine() resil.QuarantineConfig {
	return resil.QuarantineConfig{StrikeLimit: 3, Parole: 512}
}

// safeApply is supervised mutator application: a panic inside the
// mutator — including the μAST fuel watchdog cutting off a runaway
// traversal — is recovered and reported instead of killing the fuzzing
// stream. fuel distinguishes watchdog cuts from genuine panics.
func safeApply(mu *muast.Mutator, src string, mgr *muast.Manager) (mutant string, ok bool, faulted, fuel bool) {
	defer func() {
		if r := recover(); r != nil {
			mutant, ok, faulted = "", false, true
			_, fuel = r.(muast.FuelExhausted)
		}
	}()
	mutant, ok = mu.Apply(src, mgr)
	return
}

// mutationArena is one stream's mutation parse state: an AST arena and
// the manager rebound to each translation unit parsed into it. Mutation
// inputs on the hot loop are mostly freshly minted mutant strings, so
// routing them through the global parse cache would be all misses and
// pure pollution; an arena parse reuses the arena's storage instead.
// Every node the manager hands out dies at the next parse — only the
// rewritten strings (owned) may escape.
type mutationArena struct {
	arena *cast.Arena
	rng   *rand.Rand
	mgr   *muast.Manager
}

// newMutationArena returns an empty arena whose manager draws from rng.
func newMutationArena(rng *rand.Rand) *mutationArena {
	return &mutationArena{arena: cast.NewArena(), rng: rng}
}

// manager resets the arena, parses and checks src into it, and rebinds
// the arena's manager to the result. The previous manager and every
// node from the previous parse are invalid afterwards.
func (a *mutationArena) manager(src string) (*muast.Manager, error) {
	a.arena.Reset()
	tu, err := cast.ParseAndCheckArena(src, a.arena)
	if err != nil {
		return nil, err
	}
	if a.mgr == nil {
		a.mgr = muast.NewManagerFromTU(tu, a.rng)
	} else {
		a.mgr.ResetTo(tu)
	}
	return a.mgr, nil
}

// uncheckedRewriteArena performs a completely unvalidated expression-
// over-expression splice on src, parsed into a. ok is false when src has
// no two expressions to splice.
func uncheckedRewriteArena(src string, a *mutationArena) (string, bool) {
	mgr, err := a.manager(src)
	if err != nil {
		return "", false
	}
	return spliceWith(mgr, a.rng)
}

// spliceWith draws the expression pair and performs the splice.
func spliceWith(mgr *muast.Manager, rng *rand.Rand) (string, bool) {
	exprs := mgr.Exprs(nil, nil)
	if len(exprs) < 2 {
		return "", false
	}
	dst := exprs[rng.Intn(len(exprs))]
	from := exprs[rng.Intn(len(exprs))]
	if dst == from || dst.Range().Contains(from.Range()) ||
		from.Range().Contains(dst.Range()) {
		return "", false
	}
	text := mgr.GetSourceText(from)
	if text == mgr.GetSourceText(dst) {
		return "", false // identical spelling: would be a no-op splice
	}
	if !mgr.ReplaceNode(dst, text) {
		return "", false
	}
	return mgr.Apply(), true
}

// compileMutant compiles src through the stream's context. With the
// static filter on, the caller has already run cx.Front(src) and it
// accepted the mutant, so only Finish remains and the compile reuses
// that one parse.
func compileMutant(cx *compilersim.Context, src string, opts compilersim.Options, frontDone bool) compilersim.Result {
	if frontDone {
		return cx.Finish(opts)
	}
	return cx.Compile(src, opts)
}

// ---------------------------------------------------------------------
// μCFuzz — Algorithm 1
// ---------------------------------------------------------------------

// MuCFuzz is the paper's micro coverage-guided fuzzer. Each iteration
// picks a random pool program, shuffles the mutators, and applies them in
// order until one produces a mutant covering a new branch, which is then
// added back to the pool (Algorithm 1).
type MuCFuzz struct {
	comp     *compilersim.Compiler
	cx       *compilersim.Context
	opts     compilersim.Options
	mutators []*muast.Mutator
	pool     []string
	rng      *rand.Rand
	stats    *Stats
	// MaxMutatorTries bounds the inner loop; Algorithm 1 tries every
	// mutator, which we cap for throughput on large mutator sets.
	MaxMutatorTries int
	// MaxProgramSize drops runaway mutants (resource limiting).
	MaxProgramSize int
	// UncheckedRate emulates mutator fallibility (see
	// DefaultUncheckedRate).
	UncheckedRate float64
	// Blind disables coverage guidance (Algorithm 1 line 8): mutants are
	// admitted to the pool at a small fixed rate instead. Ablation only.
	Blind bool
	// StaticFilter discards mutants the compiler's front end rejects
	// (Context.Front, named by mutcheck.Classify) before they consume a
	// compiler tick; accepted mutants finish compiling from that parse.
	// Off by default; the mucfuzz CLI enables it (and exposes -no-static
	// to turn it off).
	StaticFilter bool
	// Quarantine benches mutators that keep panicking or exhausting
	// their fuel budget (strike/parole discipline). Per-instance and
	// tick-driven, so it never perturbs the deterministic schedule.
	Quarantine *resil.Quarantine
	// Sched ranks the mutators each tick. The default Uniform policy
	// reproduces Algorithm 1's shuffle bit-for-bit (same stream-RNG
	// draws); swap in sched.NewAdaptive for bandit-weighted selection.
	// Arms index into the mutator slice in constructor order.
	Sched sched.Scheduler

	allowedFn func(int) bool
	// mutArena holds the step's pool program and its manager, alive
	// across every try of the step; spliceArena backs the
	// unchecked-rewrite parses that run between those tries, so the two
	// must stay separate.
	mutArena    *mutationArena
	spliceArena *mutationArena
	// flight, when attached, journals crashes, pool admissions,
	// rewards, and quarantine churn (see AttachFlight).
	flight FlightEmitter
}

// NewMuCFuzz builds a μCFuzz instance over the given mutator set.
func NewMuCFuzz(name string, comp *compilersim.Compiler, mutators []*muast.Mutator,
	seedPool []string, rng *rand.Rand) *MuCFuzz {
	pool := make([]string, len(seedPool))
	copy(pool, seedPool)
	f := &MuCFuzz{
		comp:            comp,
		cx:              comp.NewContext(),
		opts:            compilersim.DefaultOptions(),
		mutators:        mutators,
		pool:            pool,
		rng:             rng,
		stats:           NewStats(name),
		MaxMutatorTries: 8,
		MaxProgramSize:  1 << 16,
		UncheckedRate:   DefaultUncheckedRate,
		Quarantine:      resil.NewQuarantine(DefaultQuarantine(), nil),
		Sched:           sched.NewUniform(len(mutators)),
		mutArena:        newMutationArena(rng),
		spliceArena:     newMutationArena(rng),
	}
	f.allowedFn = f.armAllowed
	return f
}

// armAllowed reports whether the arm's mutator is off the quarantine
// bench — the filter handed to the scheduler each tick.
func (f *MuCFuzz) armAllowed(i int) bool {
	return f.Quarantine.Allowed(f.mutators[i].Name)
}

// SchedState serializes the scheduler posterior (checkpointing).
func (f *MuCFuzz) SchedState() *sched.State { return f.Sched.State() }

// SetSchedState restores the scheduler posterior (checkpoint resume).
func (f *MuCFuzz) SetSchedState(st *sched.State) error { return f.Sched.Restore(st) }

// InstrumentSched attaches per-mutator scheduler telemetry
// (sched_picks_total, sched_weight).
func (f *MuCFuzz) InstrumentSched(reg *obs.Registry) {
	names := make([]string, len(f.mutators))
	for i, mu := range f.mutators {
		names[i] = mu.Name
	}
	f.Sched.Instrument(reg, names)
}

// Name returns the fuzzer's display name.
func (f *MuCFuzz) Name() string { return f.stats.Name }

// Stats exposes the accounting.
func (f *MuCFuzz) Stats() *Stats { return f.stats }

// PoolSize returns the current program-pool size.
func (f *MuCFuzz) PoolSize() int { return len(f.pool) }

// Step runs one iteration of Algorithm 1: it stops after the first
// mutant that covers a new branch (adding it to the pool), or after
// MaxMutatorTries mutants.
func (f *MuCFuzz) Step() {
	f.Quarantine.Tick()
	if len(f.pool) == 0 {
		return
	}
	p := f.pool[f.rng.Intn(len(f.pool))]
	// The try-order comes from the scheduler, driven only by the stream
	// RNG: Uniform is Algorithm 1's shuffle (one Perm, identical draws),
	// Adaptive ranks arms by posterior reward. Either way the schedule
	// is a pure function of stream state — reproducible under the
	// engine at any worker count.
	order := f.Sched.Order(f.rng, f.allowedFn)
	tries := 0
	// One mutation manager serves every try of the step: all tries
	// mutate the same pool program p, so it is parsed once into the
	// step's arena (one parent-map derivation at most) and Reset —
	// which restores the manager to freshly-constructed state —
	// recycles it between tries.
	var mgr *muast.Manager
	for _, mi := range order {
		if tries >= f.MaxMutatorTries {
			return
		}
		mu := f.mutators[mi]
		if !f.Quarantine.Allowed(mu.Name) {
			continue // benched offender; costs nothing, like inapplicable
		}
		if mgr == nil {
			var err error
			mgr, err = f.mutArena.manager(p)
			if err != nil {
				return // pool entry no longer parses (should not happen)
			}
		} else {
			mgr.Reset()
		}
		mutant, ok, faulted, fuel := safeApply(mu, p, mgr)
		if faulted {
			f.stats.RecordMutatorFault(mu.Name, fuel)
			f.Quarantine.Strike(mu.Name)
			f.Sched.Observe(mi, sched.Reward{Fault: true})
			continue
		}
		if !ok {
			// Not applicable to this program: zero reward, but the try
			// still counts — otherwise a never-applying arm keeps its
			// untried (+Inf) UCB score and the bandit re-picks it forever.
			f.Sched.Observe(mi, sched.Reward{})
			continue // try the next (free)
		}
		if f.rng.Float64() < f.UncheckedRate {
			if spliced, sok := uncheckedRewriteArena(mutant, f.spliceArena); sok {
				mutant = spliced
			}
		}
		if len(mutant) > f.MaxProgramSize {
			continue
		}
		tries++
		if f.StaticFilter {
			if err := f.cx.Front(mutant); err != nil {
				f.stats.RecordStaticReject(mu.Name, mutcheck.Classify(err))
				f.Sched.Observe(mi, sched.Reward{CompileError: true})
				continue
			}
		}
		nCrash := len(f.stats.Crashes)
		// Compile through the per-stream context: the result is borrowed
		// (coverage aliases context storage until the next compile), and
		// Stats.Record merges the coverage immediately, which is the copy.
		res := compileMutant(f.cx, mutant, f.opts, f.StaticFilter)
		isNew := f.stats.Record(mutant, mu.Name, res)
		if f.flight != nil && len(f.stats.Crashes) > nCrash {
			emitCrash(f.flight, f.stats, res.Crash, mu.Name)
		}
		f.Sched.Observe(mi, sched.Reward{
			NewCoverage:  isNew,
			Crash:        res.Crash != nil,
			CompileError: !res.OK && res.Crash == nil,
		})
		if f.Blind {
			// Ablation: no coverage feedback; admit a fixed fraction.
			if res.OK && f.rng.Float64() < 0.05 {
				f.pool = append(f.pool, mutant)
				return
			}
			continue
		}
		if isNew && res.OK {
			f.pool = append(f.pool, mutant)
			if f.flight != nil {
				emitAdmission(f.flight, f.stats, mu.Name, len(f.pool))
			}
			return
		}
	}
}

// ---------------------------------------------------------------------
// Macro fuzzer
// ---------------------------------------------------------------------

// CoverageSink is where a macro worker publishes each compilation's
// coverage and learns whether it found anything new — the pool-admission
// signal. The campaign engine swaps in per-epoch views that satisfy
// this interface; standalone workers use a SharedCoverage.
type CoverageSink interface {
	// MergeIfNew merges m and reports whether it contained unseen edges.
	MergeIfNew(m *cover.Map) bool
}

// SharedCoverage is the cross-goroutine coverage map of the macro
// fuzzer (enhancement #3 in Section 3.4) for workers running outside
// the campaign engine: one mutex over one map.
type SharedCoverage struct {
	mu sync.Mutex
	m  cover.Map
}

// NewSharedCoverage returns an empty shared map.
func NewSharedCoverage() *SharedCoverage {
	return &SharedCoverage{}
}

// MergeIfNew merges m and reports whether it contained unseen edges.
func (s *SharedCoverage) MergeIfNew(m *cover.Map) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.m.HasNew(m) {
		return false
	}
	s.m.Merge(m)
	return true
}

// Count returns the number of covered edges.
func (s *SharedCoverage) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Count()
}

// Snapshot copies the current shared map (reporting).
func (s *SharedCoverage) Snapshot() *cover.Map {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Clone()
}

// MacroConfig tunes the macro fuzzer's enhancements.
type MacroConfig struct {
	// HavocMax is the maximum number of mutation rounds applied per
	// mutant (enhancement #2).
	HavocMax int
	// SampleFlags enables random compiler-command-line sampling
	// (enhancement #1).
	SampleFlags bool
	// MaxProgramSize is the resource limit (enhancement #4).
	MaxProgramSize int
	// UncheckedRate emulates mutator fallibility (see
	// DefaultUncheckedRate).
	UncheckedRate float64
	// StaticFilter discards statically-invalid mutants before they
	// consume a compiler tick (see MuCFuzz.StaticFilter).
	StaticFilter bool
}

// DefaultMacroConfig mirrors the long-running campaign settings.
func DefaultMacroConfig() MacroConfig {
	return MacroConfig{HavocMax: 4, SampleFlags: true, MaxProgramSize: 1 << 16,
		UncheckedRate: DefaultUncheckedRate}
}

// MacroFuzzer is the long-term bug-hunting fuzzer of Section 3.4.
type MacroFuzzer struct {
	comp     *compilersim.Compiler
	cx       *compilersim.Context
	mutators []*muast.Mutator
	pool     []string
	rng      *rand.Rand
	stats    *Stats
	shared   CoverageSink
	cfg      MacroConfig
	// Quarantine benches panicking/fuel-exhausting mutators (see
	// MuCFuzz.Quarantine).
	Quarantine *resil.Quarantine
	// Sched picks the mutator for each havoc round (see MuCFuzz.Sched);
	// the default Uniform policy reproduces the legacy rng.Intn draw.
	Sched sched.Scheduler

	allowedFn func(int) bool
	armBuf    []int // applied-arm scratch, reused across steps
	// mutArena backs every havoc round's parse and the unchecked-rewrite
	// splice: each manager is dead before the next parse, so one arena
	// serves the whole step.
	mutArena *mutationArena
	// flight, when attached, journals crashes, pool admissions,
	// rewards, and quarantine churn (see AttachFlight).
	flight FlightEmitter
}

// NewMacroFuzzer builds a macro fuzzer worker; workers on the same
// compiler share coverage via shared (nil disables pool admission until
// a sink is attached with SetCoverage).
func NewMacroFuzzer(name string, comp *compilersim.Compiler,
	mutators []*muast.Mutator, seedPool []string, rng *rand.Rand,
	shared CoverageSink, cfg MacroConfig) *MacroFuzzer {
	pool := make([]string, len(seedPool))
	copy(pool, seedPool)
	f := &MacroFuzzer{
		comp: comp, cx: comp.NewContext(),
		mutators: mutators, pool: pool, rng: rng,
		stats: NewStats(name), shared: shared, cfg: cfg,
		Quarantine: resil.NewQuarantine(DefaultQuarantine(), nil),
		Sched:      sched.NewUniform(len(mutators)),
		mutArena:   newMutationArena(rng),
	}
	f.allowedFn = f.armAllowed
	return f
}

// armAllowed reports whether the arm's mutator is off the quarantine
// bench.
func (f *MacroFuzzer) armAllowed(i int) bool {
	return f.Quarantine.Allowed(f.mutators[i].Name)
}

// SchedState serializes the scheduler posterior (checkpointing).
func (f *MacroFuzzer) SchedState() *sched.State { return f.Sched.State() }

// SetSchedState restores the scheduler posterior (checkpoint resume).
func (f *MacroFuzzer) SetSchedState(st *sched.State) error { return f.Sched.Restore(st) }

// InstrumentSched attaches per-mutator scheduler telemetry.
func (f *MacroFuzzer) InstrumentSched(reg *obs.Registry) {
	names := make([]string, len(f.mutators))
	for i, mu := range f.mutators {
		names[i] = mu.Name
	}
	f.Sched.Instrument(reg, names)
}

// Name returns the worker's name.
func (f *MacroFuzzer) Name() string { return f.stats.Name }

// Stats exposes the accounting.
func (f *MacroFuzzer) Stats() *Stats { return f.stats }

// sampleOptions draws a random compiler command line (enhancement #1).
func (f *MacroFuzzer) sampleOptions() compilersim.Options {
	if !f.cfg.SampleFlags {
		return compilersim.DefaultOptions()
	}
	opts := compilersim.Options{OptLevel: f.rng.Intn(4)}
	flagPool := []string{"loopvec", "strbuiltin", "cse", "simplify", "dce"}
	for _, fl := range flagPool {
		if f.rng.Float64() < 0.15 {
			opts.DisabledPasses = append(opts.DisabledPasses, fl)
		}
	}
	return opts
}

// Step runs one macro-fuzzer iteration: Havoc-style stacked mutations,
// flag sampling, shared-coverage pool admission, and size limits.
func (f *MacroFuzzer) Step() {
	f.Quarantine.Tick()
	if len(f.pool) == 0 {
		return
	}
	p := f.pool[f.rng.Intn(len(f.pool))]
	rounds := 1 + f.rng.Intn(f.cfg.HavocMax)
	cur := p
	via := ""
	applied := f.armBuf[:0]
	// mgr stays bound to cur until a round replaces it: a round whose
	// mutator does not apply or faults leaves cur unchanged, so the next
	// round Resets the manager instead of parsing the same text again.
	var mgr *muast.Manager
	for i := 0; i < rounds; i++ {
		// The scheduler picks each round's mutator from the stream RNG:
		// Uniform is the legacy rng.Intn draw, Adaptive is
		// epsilon-greedy over posterior reward.
		mi := f.Sched.Pick(f.rng, f.allowedFn)
		if mi < 0 {
			continue // every arm benched; the round is spent
		}
		mu := f.mutators[mi]
		if !f.Quarantine.Allowed(mu.Name) {
			continue // benched offender; the round is spent, like a no-op
		}
		if mgr == nil {
			var err error
			if mgr, err = f.mutArena.manager(cur); err != nil {
				break // intermediate mutant went invalid; stop stacking
			}
		} else {
			mgr.Reset()
		}
		mutant, ok, faulted, fuel := safeApply(mu, cur, mgr)
		if faulted {
			f.stats.RecordMutatorFault(mu.Name, fuel)
			f.Quarantine.Strike(mu.Name)
			f.Sched.Observe(mi, sched.Reward{Fault: true})
			continue
		}
		if !ok {
			// Zero reward so the arm's untried (+Inf) UCB score decays;
			// see the μCFuzz counterpart.
			f.Sched.Observe(mi, sched.Reward{})
			continue
		}
		if len(mutant) > f.cfg.MaxProgramSize {
			break // resource limit: drop oversized offspring
		}
		cur = mutant
		mgr = nil
		applied = append(applied, mi)
		if via != "" {
			via += "+"
		}
		via += mu.Name
	}
	f.armBuf = applied
	if cur == p {
		return
	}
	if f.rng.Float64() < f.cfg.UncheckedRate {
		if spliced, sok := uncheckedRewriteArena(cur, f.mutArena); sok {
			cur = spliced
		}
	}
	if f.cfg.StaticFilter {
		if err := f.cx.Front(cur); err != nil {
			f.stats.RecordStaticReject(via, mutcheck.Classify(err))
			for _, mi := range applied {
				f.Sched.Observe(mi, sched.Reward{CompileError: true})
			}
			return
		}
	}
	nCrash := len(f.stats.Crashes)
	// Per-stream context compile; the borrowed coverage is merged by
	// Record and by the shared sink below before the next compile. The
	// flags are drawn only for a mutant that reaches the compiler: a
	// statically rejected one draws nothing from the stream RNG.
	// Reward observation is NOT batched here: Pick reads the posterior
	// every havoc round, so deferring Observe would change the picks.
	res := compileMutant(f.cx, cur, f.sampleOptions(), f.cfg.StaticFilter)
	f.stats.Record(cur, via, res)
	if f.flight != nil && len(f.stats.Crashes) > nCrash {
		emitCrash(f.flight, f.stats, res.Crash, via)
	}
	admitted := res.OK && f.shared != nil && f.shared.MergeIfNew(res.Coverage)
	if admitted {
		f.pool = append(f.pool, cur)
		if f.flight != nil {
			emitAdmission(f.flight, f.stats, via, len(f.pool))
		}
	}
	// The single end-of-step compile outcome is attributed to every
	// mutator in the havoc chain.
	rw := sched.Reward{
		NewCoverage:  admitted,
		Crash:        res.Crash != nil,
		CompileError: !res.OK && res.Crash == nil,
	}
	for _, mi := range applied {
		f.Sched.Observe(mi, rw)
	}
}

// Corpus returns a copy of the worker's current program pool
// (checkpointing).
func (f *MacroFuzzer) Corpus() []string {
	out := make([]string, len(f.pool))
	copy(out, f.pool)
	return out
}

// SetCorpus replaces the program pool (checkpoint restore).
func (f *MacroFuzzer) SetCorpus(pool []string) {
	f.pool = make([]string, len(pool))
	copy(f.pool, pool)
}

// PoolSize returns the current program-pool size.
func (f *MacroFuzzer) PoolSize() int { return len(f.pool) }

// Coverage returns the worker's current coverage sink.
func (f *MacroFuzzer) Coverage() CoverageSink { return f.shared }

// SetCoverage swaps the coverage sink.
func (f *MacroFuzzer) SetCoverage(sink CoverageSink) { f.shared = sink }

// Corpus returns a copy of μCFuzz's current program pool.
func (f *MuCFuzz) Corpus() []string {
	out := make([]string, len(f.pool))
	copy(out, f.pool)
	return out
}

// SetCorpus replaces μCFuzz's program pool (checkpoint restore).
func (f *MuCFuzz) SetCorpus(pool []string) {
	f.pool = make([]string, len(pool))
	copy(f.pool, pool)
}
