// Command experiments regenerates the paper's tables and figures on the
// simulated substrate. Run with -run to select one experiment:
//
//	experiments -run all
//	experiments -run table1,table2,table3
//	experiments -run rq1            # figures 7-9 + table 4
//	experiments -run table5
//	experiments -run table6
//	experiments -run mutators       # section 4.1 registry stats
//	experiments -run schedbench     # scheduling/cache ablation -> BENCH_sched.json
//	experiments -run benchgate      # compare fresh benches vs committed BENCH files
//	experiments -run flightreport -flight-journal flight.jsonl
//
// The -steps / -invocations / -macrosteps flags scale the campaigns.
// -sched switches the μCFuzz/macro campaigns between the legacy
// uniform shuffle (default) and the adaptive UCB bandit; schedbench
// runs both, with the mutant cache off and on, and writes the result
// to -out (default BENCH_sched.json). benchgate re-runs schedbench and
// exits nonzero if throughput regresses >10% vs the committed
// BENCH_sched.json or determinism breaks (see docs/PERFORMANCE.md).
//
// The table6 campaign runs on the parallel engine: -workers sets the
// goroutine count (results are identical at any value), -checkpoint DIR
// snapshots each compiler's campaign there — rerunning with the same
// directory resumes instead of restarting, and SIGINT/SIGTERM checkpoint
// before exiting — and -triage-out DIR writes the ranked per-compiler
// triage reports as JSON (-triage-reduce also minimizes each witness).
//
// Observability: -metrics-out writes a final JSON metrics snapshot,
// with one span_seconds series per experiment; -debug-addr serves
// /debug/metrics and /debug/pprof while running.
//
// flightreport is the post-campaign reporter: it replays a flight
// journal written by `mucfuzz -flight` into a human-readable report
// (timeline, top mutators by reward, crash log, anomaly log);
// -flight-metrics additionally joins a metrics snapshot's stage-latency
// table into the report.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/experiments"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/obs"
)

func main() {
	var (
		run         = flag.String("run", "all", "comma-separated experiments: table1,table2,table3,rq1,table5,table6,mutators,schedbench,benchgate,flightreport,all")
		seed        = flag.Int64("seed", 20240427, "random seed")
		steps       = flag.Int("steps", 4000, "RQ1 compilations per fuzzer per compiler")
		table5Steps = flag.Int("table5steps", 800, "compilations per Table 5 repetition")
		table5Reps  = flag.Int("table5reps", 10, "Table 5 repetitions")
		invocations = flag.Int("invocations", 100, "unsupervised MetaMut invocations")
		macroSteps  = flag.Int("macrosteps", 24000, "macro-fuzzer compilations per compiler")
		seedProgs   = flag.Int("seeds", 120, "seed corpus size")
		workers     = flag.Int("workers", 0, "table6: goroutines executing the campaign streams (0 = GOMAXPROCS; does not change results)")
		ckptDir     = flag.String("checkpoint", "", "table6: directory for per-compiler campaign snapshots (existing ones are resumed)")
		triageOut   = flag.String("triage-out", "", "table6: directory for per-compiler triage reports (JSON)")
		triageRed   = flag.Bool("triage-reduce", false, "table6: minimize each triaged witness (slower)")
		schedKind   = flag.String("sched", "", "mutator scheduling for rq1/table5/table6: uniform (default) or adaptive")
		benchSteps  = flag.Int("schedbench-steps", 6000, "schedbench/benchgate: compilations per bench variant")
		benchOut    = flag.String("out", "BENCH_sched.json", "schedbench: where to write the JSON result")
		benchDir    = flag.String("bench-dir", ".", "benchgate: directory holding the committed BENCH_sched.json")
		flightIn    = flag.String("flight-journal", "", "flightreport: flight journal (JSONL) to replay")
		flightMet   = flag.String("flight-metrics", "", "flightreport: metrics snapshot JSON to join stage latency from")
	)
	cli := obs.BindCLIFlags()
	flag.Parse()
	switch *schedKind {
	case "", "uniform", "adaptive":
	default:
		fmt.Fprintf(os.Stderr, "unknown -sched policy %q (want uniform or adaptive)\n", *schedKind)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	shutdown, err := cli.Activate(reg, "experiments")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := experiments.DefaultConfig()
	cfg.Obs = reg
	cfg.Seed = *seed
	cfg.StepsPerFuzzer = *steps
	cfg.Table5Steps = *table5Steps
	cfg.Table5Reps = *table5Reps
	cfg.Invocations = *invocations
	cfg.MacroSteps = *macroSteps
	cfg.SeedPrograms = *seedProgs
	cfg.EngineWorkers = *workers
	cfg.CheckpointDir = *ckptDir
	cfg.TriageReduce = *triageRed
	cfg.Sched = *schedKind
	cfg.SchedBenchSteps = *benchSteps

	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	ran := false

	if all || want["mutators"] {
		fmt.Println(experiments.MutatorOverview())
		ran = true
	}
	if all || want["table1"] || want["table2"] || want["table3"] {
		sp := reg.Span("campaign")
		st := experiments.RunCampaign(cfg)
		sp.End()
		if all || want["table1"] {
			fmt.Println(experiments.Table1(st))
		}
		if all || want["table2"] {
			fmt.Println(experiments.Table2(st))
		}
		if all || want["table3"] {
			fmt.Println(experiments.Table3(st))
		}
		ran = true
	}
	if all || want["rq1"] {
		sp := reg.Span("rq1")
		r := experiments.RunRQ1(cfg)
		sp.End()
		fmt.Println(experiments.Figure7(r))
		fmt.Println(experiments.Figure8(r))
		fmt.Println(experiments.Figure9(r))
		fmt.Println(experiments.Table4(r))
		ran = true
	}
	if all || want["table5"] {
		sp := reg.Span("table5")
		rows := experiments.RunTable5(cfg)
		sp.End()
		fmt.Println(experiments.Table5(rows))
		ran = true
	}
	if all || want["table6"] {
		if cfg.CheckpointDir != "" {
			if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		cfg.Ctx = ctx
		sp := reg.Span("table6")
		r := experiments.RunTable6(cfg)
		sp.End()
		stopSignals()
		if errors.Is(r.Err, engine.ErrInterrupted) && cfg.CheckpointDir != "" {
			fmt.Printf("table6 interrupted; campaign snapshots in %s — rerun with the same -checkpoint to resume\n",
				cfg.CheckpointDir)
		} else if r.Err != nil {
			fmt.Fprintln(os.Stderr, r.Err)
			os.Exit(1)
		} else {
			fmt.Println(experiments.Table6(r))
			if *triageOut != "" {
				if err := os.MkdirAll(*triageOut, 0o755); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				for _, rep := range r.Triage {
					path := filepath.Join(*triageOut, "triage-"+rep.Compiler+".json")
					if err := rep.WriteJSON(path); err != nil {
						fmt.Fprintln(os.Stderr, err)
						os.Exit(1)
					}
					fmt.Printf("triage report written to %s\n", path)
				}
			}
		}
		ran = true
	}
	if want["schedbench"] {
		// Deliberately not part of -run all: it is a performance ablation,
		// not a paper table, and BENCH_sched.json is its committed record.
		sp := reg.Span("schedbench")
		r := experiments.RunSchedBench(cfg)
		sp.End()
		fmt.Println(r.Render())
		if *benchOut != "" {
			if err := r.WriteJSON(*benchOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("ablation written to %s\n", *benchOut)
		}
		ran = true
	}
	if want["benchgate"] {
		// The CI-facing perf gate: reruns schedbench and compares it to
		// the committed BENCH_sched.json (make bench-gate).
		sp := reg.Span("benchgate")
		fails := experiments.RunBenchGate(cfg, *benchDir)
		sp.End()
		if len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "bench-gate FAIL %s: want %s, got %s\n", f.Check, f.Want, f.Got)
			}
			os.Exit(1)
		}
		fmt.Println("bench-gate ok: throughput within 10% of committed BENCH_sched.json, determinism intact")
		ran = true
	}
	if want["flightreport"] {
		// Not part of -run all: it replays an existing journal rather
		// than running a campaign.
		if *flightIn == "" {
			fmt.Fprintln(os.Stderr, "flightreport needs -flight-journal FILE")
			os.Exit(2)
		}
		jf, ferr := os.Open(*flightIn)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		events, rerr := flight.ReadJournal(jf)
		jf.Close()
		if rerr != nil {
			fmt.Fprintln(os.Stderr, rerr)
			os.Exit(1)
		}
		fmt.Print(flight.BuildReport(events).Render())
		if *flightMet != "" {
			data, merr := os.ReadFile(*flightMet)
			if merr != nil {
				fmt.Fprintln(os.Stderr, merr)
				os.Exit(1)
			}
			var snap obs.Snapshot
			if jerr := json.Unmarshal(data, &snap); jerr != nil {
				fmt.Fprintf(os.Stderr, "parse metrics snapshot %s: %v\n", *flightMet, jerr)
				os.Exit(1)
			}
			fmt.Print(flight.RenderLatency(&snap))
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *run)
		os.Exit(2)
	}
	if err := shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
