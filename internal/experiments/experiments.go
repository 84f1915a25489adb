// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 4.2 and Section 5) on the simulated substrate:
//
//	Table 1  — refinement-loop fix classification
//	Table 2  — per-mutator generation cost
//	Table 3  — request/response time split
//	Figure 7 — coverage trends of the six fuzzers
//	Figure 8 — unique-crash Venn summary
//	Figure 9 — unique crashes over time
//	Table 4  — crash distribution over compiler components
//	Table 5  — compilable-mutant ratios
//	Table 6  — bug-hunting campaign overview
//
// Absolute numbers are scaled (minutes on a simulator vs. 720 CPU-days
// on a testbed); EXPERIMENTS.md records shape-vs-paper for each.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/baselines"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/fuzz"
	_ "github.com/icsnju/metamut-go/internal/mutators" // register the 118
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
	"github.com/icsnju/metamut-go/internal/serve"
)

// Config scales the experiments. The defaults run the full suite in
// minutes; raise StepsPerFuzzer / MacroSteps for tighter curves.
type Config struct {
	// Seed drives every random stream (runs are reproducible).
	Seed int64
	// SeedPrograms is the seed-corpus size (paper: 1,839).
	SeedPrograms int
	// StepsPerFuzzer is the RQ1 budget per fuzzer per compiler, in
	// compilations (the virtual 24 hours).
	StepsPerFuzzer int
	// CoverageSamples is the number of points on the Figure 7/9 curves.
	CoverageSamples int
	// Table5Steps and Table5Reps configure the compilable-mutant runs.
	Table5Steps int
	Table5Reps  int
	// Invocations is the unsupervised MetaMut campaign size (paper: 100).
	Invocations int
	// MacroWorkers and MacroSteps configure the RQ2 campaign.
	// MacroWorkers is the number of logical fuzzing streams — part of
	// the campaign's identity (changing it changes the results);
	// EngineWorkers below only changes how fast they run.
	MacroWorkers int
	MacroSteps   int
	// EngineWorkers is the goroutine count executing the RQ2 streams
	// (0 → GOMAXPROCS). Results are identical at any value.
	EngineWorkers int
	// CheckpointDir, when set, makes the RQ2 campaign write per-compiler
	// snapshots (table6-<compiler>.json) there and resume from existing
	// ones, so an interrupted run picks up where it left off.
	CheckpointDir string
	// TriageReduce minimizes each triaged RQ2 witness via
	// internal/reduce (slower; off by default).
	TriageReduce bool
	// Sched selects the mutator scheduling policy for the μCFuzz and
	// macro campaigns: "" or "uniform" keeps the legacy unbiased
	// shuffle (baseline results stay bit-identical), "adaptive" runs
	// the per-stream UCB bandit from internal/sched.
	Sched string
	// SchedBenchSteps is the per-variant budget of the scheduling/cache
	// ablation (RunSchedBench).
	SchedBenchSteps int
	// Ctx, when non-nil, interrupts the RQ2 campaign at the next epoch
	// barrier once cancelled (the CLI wires SIGINT here); progress is
	// checkpointed when CheckpointDir is set.
	Ctx context.Context
	// Obs, when non-nil, receives metrics from every campaign the
	// experiments run (compilers, fuzzer stats, LLM clients). All
	// instrumentation is nil-safe, so a nil Obs costs nothing.
	Obs *obs.Registry
}

// DefaultConfig returns the scaled-down defaults.
func DefaultConfig() Config {
	return Config{
		Seed:            20240427,
		SeedPrograms:    120,
		StepsPerFuzzer:  4000,
		CoverageSamples: 24,
		Table5Steps:     800,
		Table5Reps:      10,
		Invocations:     100,
		MacroWorkers:    6,
		MacroSteps:      24000,
		SchedBenchSteps: 6000,
	}
}

// FuzzerNames in display order.
var FuzzerNames = []string{
	"muCFuzz.s", "muCFuzz.u", "AFL++", "GrayC", "Csmith", "YARPGen",
}

// newFuzzer builds the named technique over the given compiler. The
// μCFuzz variants honor cfg.Sched; baselines have no mutator arms to
// schedule.
func newFuzzer(cfg Config, name string, comp *compilersim.Compiler,
	pool []string, rng *rand.Rand) fuzz.Fuzzer {
	applySched := func(f *fuzz.MuCFuzz, arms int) {
		if cfg.Sched == "" {
			return
		}
		s, err := sched.New(cfg.Sched, arms)
		if err != nil {
			panic(err) // Config.Sched is CLI-validated; a bad literal is a bug
		}
		f.Sched = s
	}
	switch name {
	case "muCFuzz.s":
		set := serve.Arsenal("s")
		f := fuzz.NewMuCFuzz(name, comp, set, pool, rng)
		// Supervised mutators were manually corrected by the authors:
		// fewer unchecked rewrites slip through (Table 5: 74.46% vs
		// 72.00% compilable).
		f.UncheckedRate = fuzz.DefaultUncheckedRate - 0.07
		applySched(f, len(set))
		return f
	case "muCFuzz.u":
		set := serve.Arsenal("u")
		f := fuzz.NewMuCFuzz(name, comp, set, pool, rng)
		f.UncheckedRate = fuzz.DefaultUncheckedRate + 0.05
		applySched(f, len(set))
		return f
	case "AFL++":
		return baselines.NewAFL(name, comp, pool, rng)
	case "GrayC":
		return baselines.NewGrayC(name, comp, pool, rng)
	case "Csmith":
		return baselines.NewCsmith(name, comp, rng)
	case "YARPGen":
		return baselines.NewYARPGen(name, comp, rng)
	}
	panic("unknown fuzzer " + name)
}

// RQ1Run holds one fuzzer's trajectory on one compiler.
type RQ1Run struct {
	Fuzzer   string
	Compiler string
	// CoverageSeries[i] is the edge count after (i+1)/len fraction of the
	// budget (Figure 7).
	CoverageSeries []int
	Stats          *fuzz.Stats
}

// RQ1Result is the full comparison experiment: 6 fuzzers × 2 compilers.
type RQ1Result struct {
	Cfg  Config
	Runs []RQ1Run
}

// RunRQ1 executes the comparison campaign behind Figures 7-9 and
// Tables 4-5's companion columns.
func RunRQ1(cfg Config) *RQ1Result {
	pool := seeds.Generate(cfg.SeedPrograms, cfg.Seed)
	res := &RQ1Result{Cfg: cfg}
	for _, compName := range []string{"gcc", "clang"} {
		comp := serve.Compiler(compName)
		comp.Instrument(cfg.Obs)
		for fi, fname := range FuzzerNames {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(fi)*977))
			f := newFuzzer(cfg, fname, comp, pool, rng)
			f.Stats().Instrument(cfg.Obs)
			run := RQ1Run{Fuzzer: fname, Compiler: compName}
			interval := cfg.StepsPerFuzzer / cfg.CoverageSamples
			if interval == 0 {
				interval = 1
			}
			for f.Stats().Ticks < cfg.StepsPerFuzzer {
				f.Step()
				if f.Stats().Ticks%interval == 0 &&
					len(run.CoverageSeries) < cfg.CoverageSamples {
					run.CoverageSeries = append(run.CoverageSeries,
						f.Stats().Coverage.Count())
				}
			}
			for len(run.CoverageSeries) < cfg.CoverageSamples {
				run.CoverageSeries = append(run.CoverageSeries,
					f.Stats().Coverage.Count())
			}
			run.Stats = f.Stats()
			res.Runs = append(res.Runs, run)
		}
	}
	return res
}

// runsFor filters by compiler.
func (r *RQ1Result) runsFor(compiler string) []RQ1Run {
	var out []RQ1Run
	for _, run := range r.Runs {
		if run.Compiler == compiler {
			out = append(out, run)
		}
	}
	return out
}

// run returns the named run.
func (r *RQ1Result) run(fuzzer, compiler string) *RQ1Run {
	for i := range r.Runs {
		if r.Runs[i].Fuzzer == fuzzer && r.Runs[i].Compiler == compiler {
			return &r.Runs[i]
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Figure 7 — coverage trends
// ---------------------------------------------------------------------

// Figure7 renders the coverage-trend series for both compilers.
func Figure7(r *RQ1Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 7: branch-coverage trends (edges covered; one row per sample over the budget)\n")
	for _, compName := range []string{"gcc", "clang"} {
		fmt.Fprintf(&sb, "\n  [%s]\n  %-8s", compName, "t")
		for _, fn := range FuzzerNames {
			fmt.Fprintf(&sb, "%12s", fn)
		}
		sb.WriteString("\n")
		runs := r.runsFor(compName)
		n := r.Cfg.CoverageSamples
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "  %3d/%-4d", i+1, n)
			for _, fn := range FuzzerNames {
				for _, run := range runs {
					if run.Fuzzer == fn {
						fmt.Fprintf(&sb, "%12d", run.CoverageSeries[i])
					}
				}
			}
			sb.WriteString("\n")
		}
		// Ordering summary line in the spirit of the paper's text.
		final := map[string]int{}
		for _, run := range runs {
			final[run.Fuzzer] = run.Stats.Coverage.Count()
		}
		fmt.Fprintf(&sb, "  final: %s\n", orderingString(final))
	}
	return sb.String()
}

func orderingString(scores map[string]int) string {
	type kv struct {
		k string
		v int
	}
	var list []kv
	for k, v := range scores {
		list = append(list, kv{k, v})
	}
	sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
	var parts []string
	for _, e := range list {
		parts = append(parts, fmt.Sprintf("%s(%d)", e.k, e.v))
	}
	return strings.Join(parts, " > ")
}

// ---------------------------------------------------------------------
// Figure 8 — unique-crash Venn
// ---------------------------------------------------------------------

// Figure8 summarizes the crash sets: per-fuzzer totals (crashes found on
// either compiler), the μCFuzz-exclusive share, and total distinct
// crashes — the quantities the paper reads off its Venn diagram.
func Figure8(r *RQ1Result) string {
	sigsBy := map[string]map[string]bool{}
	all := map[string]bool{}
	for _, run := range r.Runs {
		m := sigsBy[run.Fuzzer]
		if m == nil {
			m = map[string]bool{}
			sigsBy[run.Fuzzer] = m
		}
		for sig := range run.Stats.Crashes {
			m[sig] = true
			all[sig] = true
		}
	}
	mu := map[string]bool{}
	others := map[string]bool{}
	for fn, sigs := range sigsBy {
		for sig := range sigs {
			if fn == "muCFuzz.s" || fn == "muCFuzz.u" {
				mu[sig] = true
			} else {
				others[sig] = true
			}
		}
	}
	muOnly, shared, othersOnly := 0, 0, 0
	for sig := range all {
		switch {
		case mu[sig] && others[sig]:
			shared++
		case mu[sig]:
			muOnly++
		default:
			othersOnly++
		}
	}
	var sb strings.Builder
	sb.WriteString("Figure 8: unique crashes per technique (both compilers, dedup by top-2 frames)\n")
	for _, fn := range FuzzerNames {
		fmt.Fprintf(&sb, "  %-10s %3d\n", fn, len(sigsBy[fn]))
	}
	fmt.Fprintf(&sb, "  total distinct: %d\n", len(all))
	fmt.Fprintf(&sb, "  muCFuzz-exclusive: %d   shared: %d   others-only: %d\n",
		muOnly, shared, othersOnly)
	return sb.String()
}

// ---------------------------------------------------------------------
// Figure 9 — crash discovery over time
// ---------------------------------------------------------------------

// Figure9 renders each fuzzer's cumulative unique-crash curve.
func Figure9(r *RQ1Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 9: unique crashes over time (cumulative; one row per sample)\n")
	for _, compName := range []string{"gcc", "clang"} {
		fmt.Fprintf(&sb, "\n  [%s]\n  %-8s", compName, "t")
		for _, fn := range FuzzerNames {
			fmt.Fprintf(&sb, "%12s", fn)
		}
		sb.WriteString("\n")
		n := r.Cfg.CoverageSamples
		budget := r.Cfg.StepsPerFuzzer
		for i := 1; i <= n; i++ {
			cutoff := budget * i / n
			fmt.Fprintf(&sb, "  %3d/%-4d", i, n)
			for _, fn := range FuzzerNames {
				run := r.run(fn, compName)
				count := 0
				for _, c := range run.Stats.Crashes {
					if c.FirstTick <= cutoff {
						count++
					}
				}
				fmt.Fprintf(&sb, "%12d", count)
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 4 — crash distribution by component
// ---------------------------------------------------------------------

// Table4 renders unique crashes per compiler component (both compilers
// merged, as in the paper).
func Table4(r *RQ1Result) string {
	var sb strings.Builder
	sb.WriteString("Table 4: unique crashes by compiler component\n")
	fmt.Fprintf(&sb, "  %-10s %10s %6s %6s %10s %7s\n",
		"", "Front-End", "IR", "Opt", "Back-End", "Total")
	for _, fn := range FuzzerNames {
		sigSeen := map[string]compilersim.Component{}
		for _, compName := range []string{"gcc", "clang"} {
			run := r.run(fn, compName)
			for sig, c := range run.Stats.Crashes {
				sigSeen[sig] = c.Report.Component
			}
		}
		counts := map[compilersim.Component]int{}
		for _, comp := range sigSeen {
			counts[comp]++
		}
		fmt.Fprintf(&sb, "  %-10s %10d %6d %6d %10d %7d\n", fn,
			counts[compilersim.FrontEnd], counts[compilersim.IRGen],
			counts[compilersim.Opt], counts[compilersim.BackEnd], len(sigSeen))
	}
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 5 — compilable mutants
// ---------------------------------------------------------------------

// Table5Row is one technique's compilable-mutant measurement.
type Table5Row struct {
	Tool       string
	Compilable int
	Total      int
	Ratio      float64
}

// RunTable5 measures the average compilable ratio over cfg.Table5Reps
// repeated runs (the paper repeats its 24-hour run ten times).
func RunTable5(cfg Config) []Table5Row {
	pool := seeds.Generate(cfg.SeedPrograms, cfg.Seed)
	comp := compilersim.New("gcc", 14)
	comp.Instrument(cfg.Obs)
	var rows []Table5Row
	for fi, fname := range FuzzerNames {
		row := Table5Row{Tool: fname}
		for rep := 0; rep < cfg.Table5Reps; rep++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(fi*1000+rep)))
			f := newFuzzer(cfg, fname, comp, pool, rng)
			f.Stats().Instrument(cfg.Obs)
			for f.Stats().Ticks < cfg.Table5Steps {
				f.Step()
			}
			row.Compilable += f.Stats().Compilable
			row.Total += f.Stats().Total
		}
		if row.Total > 0 {
			row.Ratio = 100 * float64(row.Compilable) / float64(row.Total)
		}
		rows = append(rows, row)
	}
	return rows
}

// Table5 renders the rows.
func Table5(rows []Table5Row) string {
	var sb strings.Builder
	sb.WriteString("Table 5: compilable test programs (averaged over repetitions)\n")
	fmt.Fprintf(&sb, "  %-10s %14s %12s %9s\n", "Tool", "Compilable(#)", "Total(#)", "Ratio(%)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %14d %12d %9.2f\n", r.Tool, r.Compilable, r.Total, r.Ratio)
	}
	return sb.String()
}
