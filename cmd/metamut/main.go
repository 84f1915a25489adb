// Command metamut drives the mutator-generation pipeline: it runs the
// unsupervised campaign against the (simulated) LLM, prints each
// invocation's outcome, and summarizes validity and cost.
//
//	metamut -n 20            # 20 invocations
//	metamut -n 100 -v        # the paper's campaign size, verbose
//	metamut -list            # list the 118 registered mutators instead
//	metamut -lint -n 30      # statically lint 30 raw syntheses and exit
//	metamut -n 100 -no-static  # ablation: dynamic-only validation loop
//
// Observability: -stats-interval N prints a live status line every N
// invocations; -metrics-out writes the final JSON snapshot, stage
// timings included (span_seconds); -debug-addr serves /debug/metrics
// and /debug/pprof while the campaign runs.
//
// Fault tolerance: the model client runs behind a circuit breaker —
// -breaker-threshold consecutive throttles open it, calls are then
// refused up-front (outcome "deferred") until -breaker-cooldown denials
// admit a half-open probe. -breaker-threshold 0 disables it.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/icsnju/metamut-go/internal/core"
	"github.com/icsnju/metamut-go/internal/experiments"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/mutdsl"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
)

func main() {
	var (
		n          = flag.Int("n", 20, "number of MetaMut invocations")
		seed       = flag.Int64("seed", 1, "random seed")
		verbose    = flag.Bool("v", false, "print each invocation")
		list       = flag.Bool("list", false, "list registered mutators and exit")
		transcript = flag.Bool("transcript", false, "print the model chat log")
		compound   = flag.Bool("compound", false, "allow two-action (compound) inventions — the paper's future-work template extension")
		lint       = flag.Bool("lint", false, "statically lint -n raw syntheses (no refinement) and exit")
		noStatic   = flag.Bool("no-static", false, "ablation: disable the mutcheck linter; every defect costs a compile-and-run round")
		breakerTh  = flag.Int("breaker-threshold", 5, "consecutive API throttles before the circuit breaker opens (0 = no breaker)")
		breakerCd  = flag.Int("breaker-cooldown", 8, "deferred calls before the open breaker admits a half-open probe")
	)
	cli := obs.BindCLIFlags()
	flag.Parse()

	if *list {
		for _, mu := range muast.All() {
			marker := " "
			if mu.Creative {
				marker = "*"
			}
			fmt.Printf("%-36s %-10s %-12s %s\n",
				mu.Name, mu.Category, mu.Set, marker)
		}
		fmt.Printf("\n%d mutators (* = creative, off-template)\n", len(muast.All()))
		return
	}

	reg := obs.NewRegistry()
	shutdown, err := cli.Activate(reg, "metamut")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Pre-register the event-gated pipeline families so -metrics-out
	// snapshots carry the full schema even on quiet runs.
	core.RegisterMetrics(reg)
	llm.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)

	if *lint {
		runLint(llm.NewSimClient(*seed), *n, *compound)
		return
	}

	rec := llm.NewRecorder(llm.NewSimClient(*seed))
	rec.Instrument(reg)
	var client llm.Client = rec
	if *breakerTh > 0 {
		client = llm.Guard(rec, resil.NewBreaker(resil.BreakerConfig{
			FailureThreshold: *breakerTh,
			Cooldown:         *breakerCd,
		}, reg))
	}
	fw := core.New(client, *seed+1)
	fw.Obs = reg
	fw.NoStatic = *noStatic
	fw.Params.AllowCompound = *compound

	sp := reg.Span("campaign")
	valid := 0
	results := fw.RunUnsupervisedProgress(*n, func(i int, r core.Result) {
		if r.Outcome == core.Valid {
			valid++
		}
		if cli.StatsInterval > 0 && i%cli.StatsInterval == 0 {
			u := rec.TotalUsage()
			fmt.Printf("[stats] invocations=%-4d valid=%-4d tokens=%-8d wait=%s\n",
				i, valid, u.TotalTokens(), u.Wait.Round(1e9))
		}
	})
	sp.End()

	for i, r := range results {
		if !*verbose {
			continue
		}
		name := "-"
		if r.Program != nil {
			name = r.Program.Name
		}
		fmt.Printf("#%03d %-34s %-26s tokens=%-6d qa=%-2d $%.2f fixes=%v\n",
			i+1, name, r.Outcome, r.Cost.TotalTokens(), r.Cost.TotalQA(),
			r.Cost.DollarCost(), r.FixedByGoal)
	}
	st := core.Analyze(results)
	fmt.Printf("\ninvocations: %d   valid: %d (%.1f%% of %d survived)\n",
		st.Invocations, st.ValidCount(),
		100*float64(st.ValidCount())/float64(max(1, st.SurvivedInvocations())),
		st.SurvivedInvocations())
	fmt.Printf("outcomes: %v\n", st.ByOutcome)
	fmt.Println()
	fmt.Println(experiments.Table1(st))
	fmt.Println(experiments.Table2(st))
	fmt.Println(experiments.Table3(st))
	if !*noStatic {
		staticN, dynamicN := 0, 0
		for _, v := range st.StaticCatches {
			staticN += v
		}
		for _, v := range st.DynamicCatches {
			dynamicN += v
		}
		fmt.Printf("shift-left: %d defects caught statically, %d dynamically (%d feedback tokens saved)\n",
			staticN, dynamicN, st.TokensSaved)
	}
	if *transcript {
		fmt.Println("---- model transcript ----")
		fmt.Print(rec.Render())
	}

	if err := shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// runLint synthesizes n raw mutator implementations (no refinement
// loop) and prints every mutcheck diagnostic, warnings included — the
// shift-left report an engineer would read before paying for dynamic QA.
func runLint(client llm.Client, n int, compound bool) {
	params := llm.DefaultParams()
	params.AllowCompound = compound
	perCheck := map[string]int{}
	clean, unlintable := 0, 0
	for i := 0; i < n; i++ {
		inv, _, err := client.Invent(llm.Actions, llm.Structures, nil, params)
		if err != nil {
			continue // throttled; lint mode just skips
		}
		prog, _, err := client.Synthesize(inv, params)
		if err != nil {
			continue
		}
		if _, cerr := mutdsl.Compile(prog); cerr != nil {
			// Goal #1 territory: nothing to lint until the source compiles.
			unlintable++
			fmt.Printf("#%03d %-34s does not compile: %v\n", i+1, prog.Name, cerr)
			continue
		}
		diags := mutcheck.Lint(prog)
		if len(diags) == 0 {
			clean++
			continue
		}
		fmt.Printf("#%03d %s\n", i+1, prog.Name)
		for _, d := range diags {
			perCheck[d.Check]++
			fmt.Printf("     %s\n", d)
		}
	}
	fmt.Printf("\nlinted %d syntheses: %d clean, %d uncompilable\n", n, clean, unlintable)
	var checks []string
	for c := range perCheck {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, c := range checks {
		fmt.Printf("  %-24s %d\n", c, perCheck[c])
	}
}
