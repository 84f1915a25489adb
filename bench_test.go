// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablations called out in DESIGN.md. Each benchmark
// runs a scaled-down campaign per iteration and reports the headline
// quantity as a custom metric; the full rendered table/figure is printed
// once (to the benchmark log) so `go test -bench=.` reproduces the
// evaluation end to end.
//
//	go test -bench=. -benchmem
package metamut_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/core"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/experiments"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/mutdsl"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// benchConfig is the per-iteration campaign scale. Smaller than the
// cmd/experiments defaults so the whole bench suite stays tractable.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.SeedPrograms = 80
	cfg.StepsPerFuzzer = 1500
	cfg.CoverageSamples = 12
	cfg.Table5Steps = 400
	cfg.Table5Reps = 3
	cfg.Invocations = 60
	cfg.MacroWorkers = 4
	cfg.MacroSteps = 6000
	return cfg
}

var printOnce sync.Map

// logOnce prints the rendered experiment a single time per benchmark.
func logOnce(b *testing.B, key, text string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		b.Log("\n" + text)
	}
}

// ---------------------------------------------------------------------
// Tables 1-3 — the MetaMut generation campaign
// ---------------------------------------------------------------------

func benchCampaign(b *testing.B, render func(*core.CampaignStats) string, key string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		st := experiments.RunCampaign(cfg)
		if i == 0 {
			logOnce(b, key, render(st))
			b.ReportMetric(float64(st.ValidCount()), "valid-mutators")
			b.ReportMetric(float64(st.TotalFixes()), "fixes")
			b.ReportMetric(st.TokensTotal.Mean, "tokens/mutator")
		}
	}
}

func BenchmarkTable1RefinementFixes(b *testing.B) {
	benchCampaign(b, experiments.Table1, "table1")
}

func BenchmarkTable2GenerationCost(b *testing.B) {
	benchCampaign(b, experiments.Table2, "table2")
}

func BenchmarkTable3RequestResponseTime(b *testing.B) {
	benchCampaign(b, experiments.Table3, "table3")
}

// ---------------------------------------------------------------------
// Figures 7-9 and Table 4 — the RQ1 fuzzer comparison
// ---------------------------------------------------------------------

var (
	rq1Once   sync.Once
	rq1Shared *experiments.RQ1Result
)

// sharedRQ1 runs the comparison campaign once and reuses it across the
// four benchmarks that read it (the paper likewise derives Figures 7-9
// and Table 4 from the same runs).
func sharedRQ1() *experiments.RQ1Result {
	rq1Once.Do(func() { rq1Shared = experiments.RunRQ1(benchConfig()) })
	return rq1Shared
}

func BenchmarkFigure7CoverageTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sharedRQ1()
		if i == 0 {
			logOnce(b, "figure7", experiments.Figure7(r))
			s := r.Runs[0].Stats // muCFuzz.s on gcc
			b.ReportMetric(float64(s.Coverage.Count()), "muCFuzz.s-edges")
		}
	}
}

func BenchmarkFigure8CrashVenn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sharedRQ1()
		if i == 0 {
			logOnce(b, "figure8", experiments.Figure8(r))
			total := 0
			for _, run := range r.Runs {
				total += run.Stats.UniqueCrashes()
			}
			b.ReportMetric(float64(total), "crash-findings")
		}
	}
}

func BenchmarkFigure9CrashTimelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sharedRQ1()
		if i == 0 {
			logOnce(b, "figure9", experiments.Figure9(r))
		}
	}
}

func BenchmarkTable4CrashComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sharedRQ1()
		if i == 0 {
			logOnce(b, "table4", experiments.Table4(r))
		}
	}
}

// ---------------------------------------------------------------------
// Table 5 — compilable mutants
// ---------------------------------------------------------------------

func BenchmarkTable5CompilableMutants(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows := experiments.RunTable5(cfg)
		if i == 0 {
			logOnce(b, "table5", experiments.Table5(rows))
			for _, row := range rows {
				if row.Tool == "muCFuzz.s" {
					b.ReportMetric(row.Ratio, "muCFuzz.s-compilable%")
				}
			}
		}
	}
}

// ---------------------------------------------------------------------
// Table 6 — the bug-hunting campaign
// ---------------------------------------------------------------------

func BenchmarkTable6BugHunting(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable6(cfg)
		if i == 0 {
			logOnce(b, "table6", experiments.Table6(r))
			b.ReportMetric(float64(len(r.Reports)), "bugs-reported")
		}
	}
}

// ---------------------------------------------------------------------
// Section 4.1 — mutator registry
// ---------------------------------------------------------------------

func BenchmarkMutatorOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		text := experiments.MutatorOverview()
		if i == 0 {
			logOnce(b, "mutators", text)
		}
	}
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md): each removes one design choice and reports the
// headline metric it protects.
// ---------------------------------------------------------------------

// BenchmarkAblationNoSemanticChecks removes the μAST semantic checks
// entirely (every mutation runs unchecked): the compilable-mutant ratio
// collapses toward AFL++ territory, which is Table 5's point.
func BenchmarkAblationNoSemanticChecks(b *testing.B) {
	pool := seeds.Generate(60, 1)
	comp := compilersim.New("gcc", 14)
	for i := 0; i < b.N; i++ {
		checked := fuzz.NewMuCFuzz("checked", comp, muast.All(), pool,
			rand.New(rand.NewSource(3)))
		checked.UncheckedRate = 0
		unchecked := fuzz.NewMuCFuzz("unchecked", comp, muast.All(), pool,
			rand.New(rand.NewSource(3)))
		unchecked.UncheckedRate = 1.0
		for checked.Stats().Ticks < 600 {
			checked.Step()
		}
		for unchecked.Stats().Ticks < 600 {
			unchecked.Step()
		}
		if i == 0 {
			logOnce(b, "ablation-checks", fmt.Sprintf(
				"Ablation (semantic checks): checked %.1f%% compilable vs fully unchecked %.1f%%",
				checked.Stats().CompilableRatio(), unchecked.Stats().CompilableRatio()))
			b.ReportMetric(checked.Stats().CompilableRatio(), "checked%")
			b.ReportMetric(unchecked.Stats().CompilableRatio(), "unchecked%")
		}
	}
}

// BenchmarkAblationNoCoverageGuidance disables Algorithm 1's line-8
// admission test: blind mutation covers fewer edges from the same budget.
func BenchmarkAblationNoCoverageGuidance(b *testing.B) {
	pool := seeds.Generate(60, 1)
	comp := compilersim.New("gcc", 14)
	for i := 0; i < b.N; i++ {
		guided := fuzz.NewMuCFuzz("guided", comp, muast.All(), pool,
			rand.New(rand.NewSource(5)))
		blind := fuzz.NewMuCFuzz("blind", comp, muast.All(), pool,
			rand.New(rand.NewSource(5)))
		blind.Blind = true
		for guided.Stats().Ticks < 1200 {
			guided.Step()
		}
		for blind.Stats().Ticks < 1200 {
			blind.Step()
		}
		if i == 0 {
			logOnce(b, "ablation-guidance", fmt.Sprintf(
				"Ablation (coverage guidance): guided %d edges vs blind %d edges",
				guided.Stats().Coverage.Count(), blind.Stats().Coverage.Count()))
			b.ReportMetric(float64(guided.Stats().Coverage.Count()), "guided-edges")
			b.ReportMetric(float64(blind.Stats().Coverage.Count()), "blind-edges")
		}
	}
}

// BenchmarkAblationNoStagedFeedback replaces the staged goal-#1-to-#6
// feedback with a coarse "it does not work" message: the refinement loop
// converges far less often.
func BenchmarkAblationNoStagedFeedback(b *testing.B) {
	for i := 0; i < b.N; i++ {
		staged := core.New(llm.NewSimClient(11), 13)
		stagedStats := core.Analyze(staged.RunUnsupervised(50))
		coarse := core.New(llm.NewSimClient(11), 13)
		coarse.CoarseFeedback = true
		coarseStats := core.Analyze(coarse.RunUnsupervised(50))
		if i == 0 {
			logOnce(b, "ablation-staged", fmt.Sprintf(
				"Ablation (staged feedback): staged %d/50 valid vs coarse %d/50 valid",
				stagedStats.ValidCount(), coarseStats.ValidCount()))
			b.ReportMetric(float64(stagedStats.ValidCount()), "staged-valid")
			b.ReportMetric(float64(coarseStats.ValidCount()), "coarse-valid")
		}
	}
}

// BenchmarkAblationNoHavoc runs the macro fuzzer with single-step
// mutation (HavocMax=1) against the stacked default. The paper credits
// stacked rounds for multi-mutation bugs (Section 5.3); in this
// simulator coverage-guided pool evolution accumulates the same
// preconditions, so expect rough parity at bench scale (recorded as an
// honest divergence in EXPERIMENTS.md).
func BenchmarkAblationNoHavoc(b *testing.B) {
	pool := seeds.Generate(60, 1)
	comp := compilersim.New("gcc", 14)
	for i := 0; i < b.N; i++ {
		run := func(havocMax int) int {
			cfg := fuzz.DefaultMacroConfig()
			cfg.HavocMax = havocMax
			shared := fuzz.NewSharedCoverage()
			w := fuzz.NewMacroFuzzer("m", comp, muast.All(), pool,
				rand.New(rand.NewSource(9)), shared, cfg)
			for w.Stats().Ticks < 2000 {
				w.Step()
			}
			return w.Stats().UniqueCrashes()
		}
		single := run(1)
		stacked := run(4)
		if i == 0 {
			logOnce(b, "ablation-havoc", fmt.Sprintf(
				"Ablation (Havoc): single-step %d unique crashes vs stacked %d",
				single, stacked))
			b.ReportMetric(float64(single), "single-crashes")
			b.ReportMetric(float64(stacked), "stacked-crashes")
		}
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks for the substrate hot paths
// ---------------------------------------------------------------------

func BenchmarkCompilePipeline(b *testing.B) {
	src := seeds.Generate(10, 3)[7]
	comp := compilersim.New("gcc", 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := comp.Compile(src, compilersim.DefaultOptions())
		if !res.OK {
			b.Fatal("seed rejected")
		}
	}
}

// BenchmarkRecordUninstrumented / BenchmarkRecordInstrumented compare
// the per-tick accounting cost with observability off vs. on. The
// instrumented path pre-resolves its metric handles, so it must stay
// within ~2x of the baseline (and allocation-free in steady state).
func BenchmarkRecordUninstrumented(b *testing.B) {
	benchRecord(b, false)
}

func BenchmarkRecordInstrumented(b *testing.B) {
	benchRecord(b, true)
}

func benchRecord(b *testing.B, instrumented bool) {
	src := seeds.Generate(10, 3)[7]
	comp := compilersim.New("gcc", 14)
	res := comp.Compile(src, compilersim.DefaultOptions())
	s := fuzz.NewStats("bench")
	if instrumented {
		s.Instrument(obs.NewRegistry())
	}
	s.Record(src, "BenchMutator", res) // absorb the first-merge coverage work
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Record(src, "BenchMutator", res)
	}
}

// BenchmarkStaticRejectPath / BenchmarkCompilersimRejectPath price the
// two ways of discarding the same invalid mutant: the static filter the
// fuzzers run (Context.Front, the compiler's front end alone, named by
// mutcheck.Classify) versus a full simulated compiler tick (front end,
// defect checks, outcome bookkeeping). Their gap is the saving the
// fuzzers' pre-compile filter banks on every statically-rejected mutant;
// an accepted mutant pays nothing extra, because Finish reuses the parse.
func BenchmarkStaticRejectPath(b *testing.B) {
	src := badMutant(b)
	cx := compilersim.New("gcc", 14).NewContext()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := cx.Front(src)
		if err == nil {
			b.Fatal("mutant unexpectedly accepted")
		}
		mutcheck.Classify(err)
	}
}

func BenchmarkCompilersimRejectPath(b *testing.B) {
	src := badMutant(b)
	comp := compilersim.New("gcc", 14)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := comp.Compile(src, compilersim.DefaultOptions()); res.OK {
			b.Fatal("mutant unexpectedly compiled")
		}
	}
}

// badMutant produces the canonical invalid mutant: a BadMutantBug
// rewrite (off-by-one source range eating an adjacent token) applied to
// a seed program.
func badMutant(b *testing.B) string {
	b.Helper()
	prog := &mutdsl.Program{Name: "BenchBad", Description: "d",
		TargetKind:   cast.KindBinaryOperator,
		Steps:        []mutdsl.Step{{Op: mutdsl.OpWrapText, Pre: "(", Post: " + 0)"}},
		BadMutantBug: true}
	exe, err := mutdsl.Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	src := seeds.Generate(10, 3)[7]
	out := exe.Apply(src, rand.New(rand.NewSource(2)))
	if !out.Changed {
		b.Fatal("bad-mutant rewrite changed nothing")
	}
	return out.Output
}

// ---------------------------------------------------------------------
// Engine throughput scaling
// ---------------------------------------------------------------------

// BenchmarkEngine runs the same 8-stream campaign at increasing worker
// counts. The merged result is identical at every count (that's the
// engine's determinism contract); steps/s is what scales.
func BenchmarkEngine(b *testing.B) {
	pool := seeds.Generate(60, 1)
	comp := compilersim.New("gcc", 14)
	const steps = 2048
	for _, nw := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := engine.New(engine.Config{
					Streams: 8, Workers: nw, StepsPerEpoch: 32,
					TotalSteps: steps, Seed: 77,
				}, func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
					return fuzz.NewMacroFuzzer(fmt.Sprintf("bench-%d", stream),
						comp, muast.All(), pool, rng, cov, fuzz.DefaultMacroConfig())
				})
				if err := c.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// ---------------------------------------------------------------------
// Zero-alloc hot loop: compile→cover on a reusable per-stream Context
// ---------------------------------------------------------------------

// hotLoopSeeds returns a pool of compilable programs for the hot-loop
// benchmark: every tick must take the full-pipeline path, so seeds that
// fail the front end are filtered out up front.
func hotLoopSeeds(tb testing.TB, comp *compilersim.Compiler, opts compilersim.Options) []string {
	tb.Helper()
	var pool []string
	for _, src := range seeds.Generate(24, 3) {
		if res := comp.Compile(src, opts); res.OK {
			pool = append(pool, src)
		}
	}
	if len(pool) < 8 {
		tb.Fatalf("only %d of 24 seeds compile", len(pool))
	}
	return pool
}

// BenchmarkHotLoop times the steady-state inner loop the fuzzers run per
// tick — Context.Compile into Stats.Record — over a warm seed pool. The
// Context reuses its arena, tracers, and token buffer, and Record's
// first-merge coverage work is absorbed by the warm-up, so the loop must
// report 0 allocs/op (TestHotLoopAllocBudget enforces the same budget in
// the regular test run; docs/PERFORMANCE.md records it).
func BenchmarkHotLoop(b *testing.B) {
	comp := compilersim.New("gcc", 14)
	opts := compilersim.DefaultOptions()
	pool := hotLoopSeeds(b, comp, opts)
	cx := comp.NewContext()
	s := fuzz.NewStats("hotloop")
	for _, src := range pool { // absorb first-merge coverage + crash-map work
		s.Record(src, "HotLoopBench", cx.Compile(src, opts))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := pool[i%len(pool)]
		s.Record(src, "HotLoopBench", cx.Compile(src, opts))
	}
}

// TestHotLoopAllocBudget is the always-on allocation gate for the hot
// loop: the steady-state tick must stay allocation-free. The budget is
// "< 1 alloc per tick" rather than exactly zero because the parser's
// sync.Pool can repopulate under GC pressure; a real regression (a
// per-tick slice or string) costs several allocs and trips this
// immediately.
func TestHotLoopAllocBudget(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	opts := compilersim.DefaultOptions()
	pool := hotLoopSeeds(t, comp, opts)
	cx := comp.NewContext()
	s := fuzz.NewStats("hotloop-alloc")
	for _, src := range pool {
		s.Record(src, "HotLoopBench", cx.Compile(src, opts))
	}
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		src := pool[i%len(pool)]
		s.Record(src, "HotLoopBench", cx.Compile(src, opts))
		i++
	})
	if avg >= 1 {
		t.Fatalf("hot loop allocates: %.2f allocs/tick, budget < 1 (see docs/PERFORMANCE.md)", avg)
	}
}

// mutationStepBytes runs a warm macro-fuzzer stream — havoc stacking,
// the unchecked-rewrite splice and the static filter on, no mutant
// cache — and returns the heap bytes allocated per Step. The pool and
// every per-stream arena are grown by the warm-up, so what remains is
// the steady-state cost of the mutate half of the tick: the mutant
// strings themselves plus whatever the parses fail to reuse.
func mutationStepBytes(tb testing.TB) float64 {
	tb.Helper()
	comp := compilersim.New("gcc", 14)
	cfg := fuzz.DefaultMacroConfig()
	cfg.StaticFilter = true
	f := fuzz.NewMacroFuzzer("alloc-budget", comp, muast.All(), seeds.Generate(24, 3),
		rand.New(rand.NewSource(7)), fuzz.NewSharedCoverage(), cfg)
	for i := 0; i < 300; i++ {
		f.Step()
	}
	const steps = 600
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		f.Step()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / steps
}

// mutationStepBudget bounds mutationStepBytes. Measured at ~4.1 KB/step
// with every hot-loop parse on a per-stream or pooled arena; heap
// parses of each havoc round and of the static filter cost ~55 KB/step.
// The budget leaves 2x headroom over the former and sits ~7x under the
// latter.
const mutationStepBudget = 8 << 10

// TestMutationStepAllocBudget is the always-on allocation gate for the
// mutate half of the tick (TestHotLoopAllocBudget covers compile and
// record): a regression back to heap parses on the havoc rounds or the
// static filter multiplies the bytes per step and trips it.
func TestMutationStepAllocBudget(t *testing.T) {
	got := mutationStepBytes(t)
	t.Logf("mutation step: %.0f B/step", got)
	if got > mutationStepBudget {
		t.Fatalf("mutation step allocates %.0f B/step, budget %d (see docs/PERFORMANCE.md)", got, mutationStepBudget)
	}
}

// ---------------------------------------------------------------------
// Front end: lex + parse + check into one reused arena
// ---------------------------------------------------------------------

// frontEndPool is the benchmark workloads' seed pool at sub-seed 7000.
func frontEndPool(tb testing.TB) []string {
	tb.Helper()
	pool := seeds.Generate(120, 7000)
	for i, src := range pool {
		if _, err := cast.ParseAndCheck(src); err != nil {
			tb.Fatalf("seed %d fails the front end: %v", i, err)
		}
	}
	return pool
}

// frontEnd lexes, parses and checks src into a, reset first.
func frontEnd(tb testing.TB, a *cast.Arena, src string) {
	a.Reset()
	if _, err := cast.ParseAndCheckArena(src, a); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkFrontEnd times the C front end the fuzzers run several
// times per step: lex, parse and check of one seed program into one
// reused arena, cycling over seeds.Generate(120, 7000). It must report
// 0 allocs/op; TestFrontEndAllocBudget enforces that in bench-gate.
func BenchmarkFrontEnd(b *testing.B) {
	pool := frontEndPool(b)
	a := cast.NewArena()
	for _, src := range pool { // grow the arena and the pooled buffers
		frontEnd(b, a, src)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frontEnd(b, a, pool[i%len(pool)])
	}
}

// TestFrontEndAllocBudget is the allocation gate for BenchmarkFrontEnd:
// once the arena is warm, a front-end pass allocates nothing.
func TestFrontEndAllocBudget(t *testing.T) {
	pool := frontEndPool(t)
	a := cast.NewArena()
	for _, src := range pool {
		frontEnd(t, a, src)
	}
	i := 0
	avg := testing.AllocsPerRun(2*len(pool), func() {
		frontEnd(t, a, pool[i%len(pool)])
		i++
	})
	if avg != 0 {
		t.Fatalf("front end allocates: %.2f allocs/program, budget 0 (see docs/PERFORMANCE.md)", avg)
	}
}

func BenchmarkMutatorApplication(b *testing.B) {
	src := seeds.Generate(10, 3)[7]
	mus := muast.All()
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu := mus[i%len(mus)]
		mgr, err := muast.NewManager(src, rng)
		if err != nil {
			b.Fatal(err)
		}
		mu.Apply(src, mgr)
	}
}
