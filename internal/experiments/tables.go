package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/core"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/serve"
)

// RunCampaign executes the unsupervised MetaMut campaign once and
// analyzes it (shared by Tables 1-3).
func RunCampaign(cfg Config) *core.CampaignStats {
	client := llm.NewSimClient(cfg.Seed)
	llm.Instrument(client, cfg.Obs)
	fw := core.New(client, cfg.Seed+1)
	fw.Obs = cfg.Obs
	return core.Analyze(fw.RunUnsupervised(cfg.Invocations))
}

// Table1 renders the refinement-loop fix classification next to the
// paper's numbers.
func Table1(st *core.CampaignStats) string {
	paper := map[core.Goal]int{
		core.GoalCompiles: 55, core.GoalTerminates: 0, core.GoalReturns: 4,
		core.GoalOutputs: 11, core.GoalChanges: 1, core.GoalValidMutants: 36,
	}
	labels := map[core.Goal]string{
		core.GoalCompiles:     "mu not compile",
		core.GoalTerminates:   "mu hangs",
		core.GoalReturns:      "mu crashes",
		core.GoalOutputs:      "mu outputs nothing",
		core.GoalChanges:      "mu does not rewrite",
		core.GoalValidMutants: "mu creates compile-error mutant",
	}
	var sb strings.Builder
	sb.WriteString("Table 1: bugs fixed by the validation-refinement loop (unsupervised campaign)\n")
	fmt.Fprintf(&sb, "  # %-34s %9s %8s\n", "Validation Goal's Violations", "Fixed(#)", "paper")
	total, paperTotal := 0, 0
	for g := core.GoalCompiles; g <= core.GoalValidMutants; g++ {
		fmt.Fprintf(&sb, "  %d %-34s %9d %8d\n", int(g), labels[g],
			st.FixedByGoal[g], paper[g])
		total += st.FixedByGoal[g]
		paperTotal += paper[g]
	}
	fmt.Fprintf(&sb, "    %-34s %9d %8d\n", "total", total, paperTotal)
	return sb.String()
}

func summaryRow(name string, s core.Summary, paperMin, paperMax, paperMedian, paperMean float64) string {
	return fmt.Sprintf("  %-16s %8.0f %8.0f %8.0f %8.0f   (paper: %.0f/%.0f/%.0f/%.0f)\n",
		name, s.Min, s.Max, s.Median, s.Mean, paperMin, paperMax, paperMedian, paperMean)
}

// Table2 renders generation cost per mutator with the paper's columns.
func Table2(st *core.CampaignStats) string {
	var sb strings.Builder
	sb.WriteString("Table 2: generation cost of one mutator (valid mutators; min/max/median/mean)\n")
	sb.WriteString("  Tokens\n")
	sb.WriteString(summaryRow("  Invention", st.TokensInvention, 359, 2240, 1130, 1158))
	sb.WriteString(summaryRow("  Implementation", st.TokensImplementation, 372, 3870, 2488, 2501))
	sb.WriteString(summaryRow("  Bug-Fixing", st.TokensBugFix, 335, 30923, 2077, 4935))
	sb.WriteString(summaryRow("  Total", st.TokensTotal, 3214, 35312, 6054, 8595))
	sb.WriteString("  QA rounds\n")
	sb.WriteString(summaryRow("  Bug-Fixing", st.QABugFix, 1, 23, 2, 4))
	sb.WriteString(summaryRow("  Total", st.QATotal, 3, 25, 4, 6))
	sb.WriteString("  Time (s)\n")
	sb.WriteString(summaryRow("  Invention", st.TimeInvention, 11, 21, 15, 15))
	sb.WriteString(summaryRow("  Implementation", st.TimeImplementation, 14, 101, 49, 49))
	sb.WriteString(summaryRow("  Bug-Fixing", st.TimeBugFix, 29, 1876, 130, 281))
	sb.WriteString(summaryRow("  Total", st.TimeTotal, 83, 1949, 189, 346))
	fmt.Fprintf(&sb, "  mean API cost per mutator: $%.2f (paper: ~$0.50)\n",
		st.MeanDollarCost)
	return sb.String()
}

// Table3 renders the wait/prepare split.
func Table3(st *core.CampaignStats) string {
	var sb strings.Builder
	sb.WriteString("Table 3: request/response time of a single mutator (s per QA round)\n")
	sb.WriteString(summaryRow("Wait", st.WaitPerRound, 11, 123, 46, 43))
	sb.WriteString(summaryRow("Prepare", st.PreparePerRound, 0, 69, 9, 17))
	return sb.String()
}

// MutatorOverview renders the Section 4.1 registry statistics.
func MutatorOverview() string {
	var sb strings.Builder
	sb.WriteString("Section 4.1: the 118 mutators\n")
	fmt.Fprintf(&sb, "  %-12s %6s %6s %6s\n", "category", "M_s", "M_u", "total")
	cats := []muast.Category{muast.CatVariable, muast.CatExpression,
		muast.CatStatement, muast.CatFunction, muast.CatType}
	for _, c := range cats {
		s, u := 0, 0
		for _, mu := range muast.ByCategory(c) {
			if mu.Set == muast.Supervised {
				s++
			} else {
				u++
			}
		}
		fmt.Fprintf(&sb, "  %-12s %6d %6d %6d\n", c, s, u, s+u)
	}
	creative := 0
	for _, mu := range muast.All() {
		if mu.Creative {
			creative++
		}
	}
	fmt.Fprintf(&sb, "  supervised=%d unsupervised=%d creative=%d total=%d\n",
		len(muast.BySet(muast.Supervised)), len(muast.BySet(muast.Unsupervised)),
		creative, len(muast.All()))
	return sb.String()
}

// ---------------------------------------------------------------------
// Table 6 — bug-hunting campaign (RQ2)
// ---------------------------------------------------------------------

// BugReport is one reported compiler bug with its (simulated) triage
// outcome, mirroring the GCC/Clang bug-tracker workflow.
type BugReport struct {
	Crash     fuzz.CrashInfo
	Compiler  string
	Confirmed bool
	Fixed     bool
	Duplicate bool
}

// Table6Result is the RQ2 campaign output.
type Table6Result struct {
	Reports []BugReport
	// Triage holds the per-compiler ranked triage reports, in campaign
	// order (clang, gcc).
	Triage []*engine.TriageReport
	// Err records a campaign interruption (cfg.Ctx cancelled) or a
	// checkpoint failure; partial results above are still valid.
	Err error
}

// RunTable6 runs the macro fuzzer (all 118 mutators, Havoc, flag
// sampling, shared coverage) against the latest versions of both
// compilers and triages the crashes. Each compiler's campaign is one
// serve.JobSpec built by serve.Build on the parallel engine:
// cfg.MacroWorkers logical streams executed by cfg.EngineWorkers
// goroutines, checkpointed (and resumed) per compiler when
// cfg.CheckpointDir is set.
func RunTable6(cfg Config) *Table6Result {
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	policy := cfg.Sched
	if policy == "" {
		policy = "uniform"
	}
	res := &Table6Result{}
	for ci, compName := range []string{"clang", "gcc"} {
		spec := serve.JobSpec{
			Tenant: "table6", Compiler: compName, MutatorSet: "all",
			Seed: cfg.Seed, SeedCount: cfg.SeedPrograms, Steps: cfg.MacroSteps,
			Streams: cfg.MacroWorkers, Sched: policy, NoStatic: true,
			Reduce: cfg.TriageReduce,
		}
		// Both compilers fuzz one corpus (spec.Seed) on distinct stream
		// seeds.
		ecfg := engine.Config{
			Workers:  cfg.EngineWorkers,
			Seed:     cfg.Seed + int64(ci*100),
			Registry: cfg.Obs,
		}
		if cfg.CheckpointDir != "" {
			ecfg.CheckpointPath = filepath.Join(cfg.CheckpointDir, "table6-"+compName+".json")
		}
		c, err := serve.Build(spec, ecfg, nil)
		if err != nil {
			res.Err = err
			return res
		}
		if err := c.Run(ctx); err != nil {
			res.Err = err
			return res
		}
		res.Triage = append(res.Triage, c.Triage(c.Compiler, engine.TriageConfig{Reduce: spec.Reduce}))
		merged := c.MergedStats().Crashes
		// Deterministic triage per crash signature: developers confirmed
		// 129/131 reports, fixed 35, and 13 were duplicates of earlier
		// reports by others.
		var sigs []string
		for sig := range merged {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			h := cover.HashString(sig)
			rep := BugReport{
				Crash:     *merged[sig],
				Compiler:  compName,
				Confirmed: h%100 < 98, // ~2% stay unreproduced
				Duplicate: h%100 >= 90,
			}
			rep.Fixed = rep.Confirmed && (h>>8)%100 < 27
			res.Reports = append(res.Reports, rep)
		}
	}
	return res
}

// Table6 renders the campaign overview in the paper's three blocks.
func Table6(r *Table6Result) string {
	count := func(pred func(BugReport) bool) (clang, gcc int) {
		for _, rep := range r.Reports {
			if !pred(rep) {
				continue
			}
			if rep.Compiler == "clang" {
				clang++
			} else {
				gcc++
			}
		}
		return
	}
	var sb strings.Builder
	sb.WriteString("Table 6: overview of the reported compiler bugs\n")
	fmt.Fprintf(&sb, "  %-22s %7s %7s %7s\n", "", "Clang", "GCC", "Total")
	c, g := count(func(BugReport) bool { return true })
	fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", "Reported", c, g, c+g)
	c, g = count(func(b BugReport) bool { return b.Confirmed })
	fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", "Confirmed", c, g, c+g)
	c, g = count(func(b BugReport) bool { return b.Fixed })
	fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", "Fixed", c, g, c+g)
	c, g = count(func(b BugReport) bool { return b.Duplicate })
	fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", "Duplicate", c, g, c+g)
	sb.WriteString("  -- affected compiler modules --\n")
	for _, comp := range []compilersim.Component{compilersim.FrontEnd,
		compilersim.IRGen, compilersim.Opt, compilersim.BackEnd} {
		comp := comp
		c, g = count(func(b BugReport) bool { return b.Crash.Report.Component == comp })
		fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", comp, c, g, c+g)
	}
	sb.WriteString("  -- consequences --\n")
	for _, kind := range []compilersim.CrashKind{compilersim.SegmentationFault,
		compilersim.AssertionFailure, compilersim.Hang} {
		kind := kind
		c, g = count(func(b BugReport) bool { return b.Crash.Report.Kind == kind })
		fmt.Fprintf(&sb, "  %-22s %7d %7d %7d\n", kind, c, g, c+g)
	}
	return sb.String()
}
