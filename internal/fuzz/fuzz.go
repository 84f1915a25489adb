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

// maxProgramSize is the resource limit (enhancement #4): a mutant longer
// than this many bytes is dropped before it reaches the compiler.
const maxProgramSize = 1 << 16

// ---------------------------------------------------------------------
// The fuzzing stream both fuzzers share
// ---------------------------------------------------------------------

// stream is the state and machinery μCFuzz and the macro fuzzer share:
// a program pool, the stream RNG, the accounting, the mutator arsenal
// behind a quarantine and a scheduler, a per-stream compile context
// and mutation arena, and the flight emitter. Each fuzzer embeds it and
// keeps only its own policy in Step.
type stream struct {
	cx       *compilersim.Context
	mutators []*muast.Mutator
	pool     []string
	rng      *rand.Rand
	stats    *Stats
	// Quarantine benches mutators that keep panicking or exhausting
	// their fuel budget (strike/parole discipline). Per-instance and
	// tick-driven, so it never perturbs the deterministic schedule.
	Quarantine *resil.Quarantine
	// Sched ranks or picks the mutators each tick. The default Uniform
	// policy reproduces Algorithm 1's shuffle and the macro fuzzer's
	// rng.Intn draw bit-for-bit (same stream-RNG draws); swap in
	// sched.NewAdaptive for bandit-weighted selection. Arms index into
	// the mutator slice in constructor order.
	Sched sched.Scheduler

	allowedFn func(int) bool
	// mutArena holds the step's pool program and its manager.
	mutArena *mutationArena
	// flight, when attached, journals crashes, pool admissions,
	// rewards, and quarantine churn (see AttachFlight).
	flight FlightEmitter
}

// newStream builds the shared half of a fuzzer over a private copy of
// seedPool.
func newStream(name string, comp *compilersim.Compiler, mutators []*muast.Mutator,
	seedPool []string, rng *rand.Rand) *stream {
	s := &stream{
		cx:         comp.NewContext(),
		mutators:   mutators,
		rng:        rng,
		stats:      NewStats(name),
		Quarantine: resil.NewQuarantine(DefaultQuarantine(), nil),
		Sched:      sched.NewUniform(len(mutators)),
		mutArena:   newMutationArena(rng),
	}
	s.allowedFn = s.armAllowed
	s.SetCorpus(seedPool)
	return s
}

// armAllowed reports whether the arm's mutator is off the quarantine
// bench — the filter handed to the scheduler each tick.
func (s *stream) armAllowed(i int) bool {
	return s.Quarantine.Allowed(s.mutators[i].Name)
}

// SchedState serializes the scheduler posterior (checkpointing).
func (s *stream) SchedState() *sched.State { return s.Sched.State() }

// SetSchedState restores the scheduler posterior (checkpoint resume).
func (s *stream) SetSchedState(st *sched.State) error { return s.Sched.Restore(st) }

// InstrumentSched attaches per-mutator scheduler telemetry
// (sched_picks_total, sched_weight).
func (s *stream) InstrumentSched(reg *obs.Registry) {
	names := make([]string, len(s.mutators))
	for i, mu := range s.mutators {
		names[i] = mu.Name
	}
	s.Sched.Instrument(reg, names)
}

// Name returns the fuzzer's display name.
func (s *stream) Name() string { return s.stats.Name }

// Stats exposes the accounting.
func (s *stream) Stats() *Stats { return s.stats }

// PoolSize returns the current program-pool size.
func (s *stream) PoolSize() int { return len(s.pool) }

// Corpus returns a copy of the current program pool (checkpointing).
func (s *stream) Corpus() []string {
	out := make([]string, len(s.pool))
	copy(out, s.pool)
	return out
}

// SetCorpus replaces the program pool (checkpoint restore).
func (s *stream) SetCorpus(pool []string) {
	s.pool = make([]string, len(pool))
	copy(s.pool, pool)
}

// manager returns mgr Reset for another try when the program it is
// bound to is still src, or, when mgr is nil, a manager parsed from src
// into the stream's arena.
func (s *stream) manager(mgr *muast.Manager, src string) (*muast.Manager, error) {
	if mgr != nil {
		mgr.Reset()
		return mgr, nil
	}
	return s.mutArena.manager(src)
}

// apply runs arm mi's mutator on src under safeApply. A fault is booked
// (stats, a quarantine strike, a Fault reward) and an inapplicable try
// earns a zero reward — it still counts, otherwise a never-applying arm
// keeps its untried (+Inf) UCB score and the bandit re-picks it
// forever. Either way ok is false.
func (s *stream) apply(mi int, src string, mgr *muast.Manager) (mutant string, ok bool) {
	mu := s.mutators[mi]
	mutant, ok, faulted, fuel := safeApply(mu, src, mgr)
	if faulted {
		s.stats.RecordMutatorFault(mu.Name, fuel)
		s.Quarantine.Strike(mu.Name)
		s.Sched.Observe(mi, sched.Reward{Fault: true})
		return "", false
	}
	if !ok {
		s.Sched.Observe(mi, sched.Reward{})
	}
	return mutant, ok
}

// splice draws the unchecked-rewrite coin (see DefaultUncheckedRate)
// and, when it lands under rate, splices src parsed into a. src comes
// back unchanged when the coin or the splice fails.
func (s *stream) splice(src string, rate float64, a *mutationArena) string {
	if s.rng.Float64() < rate {
		if spliced, ok := uncheckedRewriteArena(src, a); ok {
			return spliced
		}
	}
	return src
}

// compile runs the back half of a tick on mutant, produced via the
// named mutator or Havoc chain. With static on, the compiler's front
// end sees it first: a rejection is booked and returns the zero Result
// without drawing anything more from the stream RNG, and an accepted
// mutant finishes compiling from that one parse. opts is called only
// once the mutant reaches the compiler. The result is borrowed
// (coverage aliases context storage until the next compile); Record
// merges the coverage, which is the copy, and a first-seen crash is
// journaled. isNew reports edges new to the stream's own coverage.
func (s *stream) compile(mutant, via string, static bool, opts func() compilersim.Options) (res compilersim.Result, isNew bool) {
	if static {
		if err := s.cx.Front(mutant); err != nil {
			s.stats.RecordStaticReject(via, mutcheck.Classify(err))
			return compilersim.Result{}, false
		}
		res = s.cx.Finish(opts())
	} else {
		res = s.cx.Compile(mutant, opts())
	}
	nCrash := len(s.stats.Crashes)
	isNew = s.stats.Record(mutant, via, res)
	if s.flight != nil && len(s.stats.Crashes) > nCrash {
		emitCrash(s.flight, s.stats, res.Crash, via)
	}
	return res, isNew
}

// outcome is the scheduler reward for one compile result; newCoverage
// is the fuzzer's own admission signal. A static reject's zero Result
// reads as a compile error.
func outcome(res compilersim.Result, newCoverage bool) sched.Reward {
	return sched.Reward{
		NewCoverage:  newCoverage,
		Crash:        res.Crash != nil,
		CompileError: !res.OK && res.Crash == nil,
	}
}

// ---------------------------------------------------------------------
// μCFuzz — Algorithm 1
// ---------------------------------------------------------------------

// maxMutatorTries bounds μCFuzz's inner loop: Algorithm 1 tries every
// mutator, which we cap for throughput on large mutator sets.
const maxMutatorTries = 8

// MuCFuzz is the paper's micro coverage-guided fuzzer. Each iteration
// picks a random pool program, shuffles the mutators, and applies them in
// order until one produces a mutant covering a new branch, which is then
// added back to the pool (Algorithm 1).
type MuCFuzz struct {
	*stream
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

	// spliceArena backs the unchecked-rewrite parses that run between
	// the tries of a step, so it must stay apart from mutArena, which
	// holds the step's pool program across every try.
	spliceArena *mutationArena
}

// NewMuCFuzz builds a μCFuzz instance over the given mutator set.
func NewMuCFuzz(name string, comp *compilersim.Compiler, mutators []*muast.Mutator,
	seedPool []string, rng *rand.Rand) *MuCFuzz {
	return &MuCFuzz{
		stream:        newStream(name, comp, mutators, seedPool, rng),
		UncheckedRate: DefaultUncheckedRate,
		spliceArena:   newMutationArena(rng),
	}
}

// Step runs one iteration of Algorithm 1: it stops after the first
// mutant that covers a new branch (adding it to the pool), or after
// maxMutatorTries mutants.
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
		if tries >= maxMutatorTries {
			return
		}
		mu := f.mutators[mi]
		if !f.Quarantine.Allowed(mu.Name) {
			continue // benched offender; costs nothing, like inapplicable
		}
		var err error
		if mgr, err = f.manager(mgr, p); err != nil {
			return // pool entry no longer parses (should not happen)
		}
		mutant, ok := f.apply(mi, p, mgr)
		if !ok {
			continue // try the next (free)
		}
		mutant = f.splice(mutant, f.UncheckedRate, f.spliceArena)
		if len(mutant) > maxProgramSize {
			continue
		}
		tries++
		res, isNew := f.compile(mutant, mu.Name, f.StaticFilter, compilersim.DefaultOptions)
		f.Sched.Observe(mi, outcome(res, isNew))
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
// signal. The campaign engine hands each stream its per-epoch view,
// which satisfies this interface.
type CoverageSink interface {
	// MergeIfNew merges m and reports whether it contained unseen edges.
	MergeIfNew(m *cover.Map) bool
}

// MacroConfig tunes the macro fuzzer's enhancements.
type MacroConfig struct {
	// HavocMax is the maximum number of mutation rounds applied per
	// mutant (enhancement #2).
	HavocMax int
	// UncheckedRate emulates mutator fallibility (see
	// DefaultUncheckedRate).
	UncheckedRate float64
	// StaticFilter discards statically-invalid mutants before they
	// consume a compiler tick (see MuCFuzz.StaticFilter).
	StaticFilter bool
}

// DefaultMacroConfig mirrors the long-running campaign settings.
func DefaultMacroConfig() MacroConfig {
	return MacroConfig{HavocMax: 4, UncheckedRate: DefaultUncheckedRate}
}

// MacroFuzzer is the long-term bug-hunting fuzzer of Section 3.4.
type MacroFuzzer struct {
	*stream
	shared CoverageSink
	cfg    MacroConfig
	armBuf []int // applied-arm scratch, reused across steps
}

// NewMacroFuzzer builds a macro fuzzer worker; workers on the same
// compiler share coverage via shared (nil disables pool admission).
// Every havoc round's parse and the unchecked-rewrite splice share the
// stream's one arena: each manager is dead before the next parse.
func NewMacroFuzzer(name string, comp *compilersim.Compiler,
	mutators []*muast.Mutator, seedPool []string, rng *rand.Rand,
	shared CoverageSink, cfg MacroConfig) *MacroFuzzer {
	return &MacroFuzzer{
		stream: newStream(name, comp, mutators, seedPool, rng),
		shared: shared, cfg: cfg,
	}
}

// sampleOptions draws a random compiler command line (enhancement #1).
func (f *MacroFuzzer) sampleOptions() compilersim.Options {
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
		var err error
		if mgr, err = f.manager(mgr, cur); err != nil {
			break // intermediate mutant went invalid; stop stacking
		}
		mutant, ok := f.apply(mi, cur, mgr)
		if !ok {
			continue
		}
		if len(mutant) > maxProgramSize {
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
	cur = f.splice(cur, f.cfg.UncheckedRate, f.mutArena)
	// The flags are drawn only for a mutant that reaches the compiler.
	// Reward observation is NOT batched here: Pick reads the posterior
	// every havoc round, so deferring Observe would change the picks.
	res, _ := f.compile(cur, via, f.cfg.StaticFilter, f.sampleOptions)
	admitted := res.OK && f.shared != nil && f.shared.MergeIfNew(res.Coverage)
	if admitted {
		f.pool = append(f.pool, cur)
		if f.flight != nil {
			emitAdmission(f.flight, f.stats, via, len(f.pool))
		}
	}
	// The single end-of-step outcome (a static reject included) is
	// attributed to every mutator in the havoc chain.
	rw := outcome(res, admitted)
	for _, mi := range applied {
		f.Sched.Observe(mi, rw)
	}
}
