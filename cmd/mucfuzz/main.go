// Command mucfuzz runs the μCFuzz micro fuzzer (or the macro fuzzer)
// against a simulated compiler profile and reports coverage, compilable
// ratio, and unique crashes.
//
//	mucfuzz -compiler gcc -steps 10000
//	mucfuzz -compiler clang -set u -steps 5000
//	mucfuzz -macro -workers 8 -steps 40000
//
// Macro campaigns run on the parallel engine: -streams logical fuzzing
// streams executed by -workers goroutines (results depend only on
// -seed/-streams/-steps, never on -workers). The campaign is the one
// serve.Build assembles from the same flags a daemon job carries, so
// `mucfuzz -macro` and `mucfuzz -macro -submit ADDR` run identical
// campaigns. -checkpoint FILE snapshots the campaign periodically and
// on SIGINT; -resume FILE continues the campaign in FILE (and keeps
// checkpointing there). The snapshot fixes seed, streams, scheduling
// policy and, unless -steps asks for more, the budget. A fresh
// -checkpoint must not name an existing snapshot. -triage-out FILE
// writes the ranked crash-triage report as JSON; -reduce additionally
// minimizes each triaged witness.
//
//	mucfuzz -macro -steps 40000 -checkpoint c.json          # ^C any time
//	mucfuzz -macro -resume c.json -steps 80000 -triage-out bugs.json
//
// Observability: -stats-interval N prints a live status line every N
// steps (throughput EMAs, ETA from the remaining budget, stall flag);
// -metrics-out writes the final JSON snapshot, stage timings included
// (span_seconds); -debug-addr serves /debug/metrics, /debug/pprof, and —
// when the flight recorder is on — /debug/campaign (live JSON console)
// plus /debug/campaign/stream (SSE journal feed).
//
//	mucfuzz -steps 2000 -stats-interval 500 -metrics-out m.json
//
// Flight recorder: -flight FILE journals every significant campaign
// event (barriers, checkpoints, mutator rewards, quarantine churn,
// crashes, watchdog anomalies) as JSONL keyed by logical time only —
// the journal is byte-identical at any -workers value for a fixed
// -seed. -flight-max-bytes caps the file (rotation keeps one .1
// generation); -flight-report prints the campaign report at exit
// (the same report a replay of the journal builds); -flight-baseline BENCH_sched.json arms the throughput-
// regression watchdog against the committed baseline.
//
//	mucfuzz -macro -steps 40000 -flight flight.jsonl -flight-report
//
// Scheduling: -sched picks the mutator scheduling policy — "adaptive"
// (the default) runs a per-stream UCB bandit over mutator reward,
// "uniform" restores the legacy unbiased shuffle.
//
//	mucfuzz -macro -steps 40000 -sched uniform   # ablation
//
// Fault injection: -chaos SEED arms the deterministic chaos harness on a
// macro campaign — worker panics before stream steps plus torn/failed
// checkpoint writes, all recoverable, so the results must match the
// fault-free run at the same -seed. A fault summary is printed at exit.
//
//	mucfuzz -macro -steps 40000 -checkpoint c.json -chaos 99
//
// Flags a mode would ignore are usage errors (exit 2): the engine flags
// need -macro, -submit needs -macro and takes no local-run flags,
// -resume takes no -seed/-seeds/-streams/-sched of its own, and -seed 0,
// -seeds 0 and -streams 0 (which would select the defaults) are refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/reduce"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/resil/chaos"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
	"github.com/icsnju/metamut-go/internal/serve"
)

// The flags live at package level so that the lists below can be
// checked against the flags actually registered.
var (
	spec      = serve.BindFlags(flag.CommandLine)
	macro     = flag.Bool("macro", false, "run the macro fuzzer instead of μCFuzz")
	workers   = flag.Int("workers", 0, "macro campaign: goroutines executing the streams (0 = GOMAXPROCS; does not change results)")
	ckpt      = flag.String("checkpoint", "", "macro campaign: snapshot file, written every -checkpoint-every epochs and on SIGINT")
	ckptEvery = flag.Int("checkpoint-every", 8, "macro campaign: epochs between snapshots")
	resume    = flag.String("resume", "", "macro campaign: resume the campaign in this snapshot file (and keep checkpointing there)")
	triageOut = flag.String("triage-out", "", "macro campaign: write the ranked triage report as JSON here")
	lint      = flag.Bool("lint", false, "statically analyze the seed corpus plus sampled mutants and exit")
	chaosSeed = flag.Int64("chaos", 0, "macro campaign: arm the deterministic chaos harness with this fault seed (0 = off)")
	flightOut = flag.String("flight", "", "write the flight journal (JSONL, logical time only) to this file")
	flightMax = flag.Int64("flight-max-bytes", 64<<20, "rotate the flight journal after this many bytes (0 = unbounded)")
	flightRep = flag.Bool("flight-report", false, "print the flight report (as a replay of the journal builds it) at exit")
	flightBas = flag.String("flight-baseline", "", "BENCH_sched.json file arming the throughput-regression watchdog")
	submitTo  = flag.String("submit", "", "delegate the macro campaign to a mucfuzzd daemon at this address instead of running locally")
	tenant    = flag.String("tenant", "cli", "tenant id for -submit")
	cli       = obs.BindCLIFlags()
)

// engineFlags configure the local engine campaign; μCFuzz runs one
// stream with no engine, checkpoint or triage pipeline.
var engineFlags = []string{"streams", "workers", "checkpoint", "checkpoint-every",
	"resume", "chaos", "triage-out"}

// localFlags shape a run in this process; with -submit the daemon runs
// the campaign and none of them reaches it.
var localFlags = []string{"workers", "checkpoint", "checkpoint-every", "resume",
	"chaos", "triage-out", "lint", "flight", "flight-max-bytes", "flight-report",
	"flight-baseline", "stats-interval", "metrics-out", "debug-addr"}

// snapshotFlags name what the snapshot owns on -resume: the campaign
// identity and, through the restored corpora, the seed pool.
var snapshotFlags = []string{"seed", "seeds", "streams", "sched"}

// checkFlags rejects flag combinations in which a given flag would be
// silently ignored. given maps every flag set on the command line to
// its value; exists reports whether a checkpoint (or its .prev) is on
// disk at a path.
func checkFlags(given map[string]string, exists func(path string) bool) error {
	for _, f := range []string{"seed", "seeds", "streams"} {
		v, ok := given[f]
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(v, 10, 64) // flag.Parse vetted the syntax
		if n == 0 || (n < 0 && f != "seed") {
			return fmt.Errorf("-%s %s would select the default; give the value you want", f, v)
		}
	}
	macro := given["macro"] == "true"
	if given["submit"] != "" {
		if !macro {
			return errors.New("-submit delegates a macro campaign: add -macro")
		}
		for _, f := range localFlags {
			if _, ok := given[f]; ok {
				return fmt.Errorf("-%s has no effect with -submit (the daemon runs the campaign)", f)
			}
		}
		return nil
	}
	if _, ok := given["tenant"]; ok {
		return errors.New("-tenant only applies with -submit")
	}
	if _, ok := given["flight-baseline"]; ok && given["flight"] == "" &&
		given["flight-report"] != "true" && given["debug-addr"] == "" {
		return errors.New("-flight-baseline arms a flight watchdog: add -flight, -flight-report or -debug-addr")
	}
	if !macro {
		for _, f := range engineFlags {
			if _, ok := given[f]; ok {
				return fmt.Errorf("-%s needs -macro (μCFuzz runs one stream without the engine)", f)
			}
		}
		return nil
	}
	res := given["resume"]
	if res == "" {
		// Build resumes whatever snapshot sits at the checkpoint path;
		// a fresh run must not continue an old campaign unasked.
		if ck := given["checkpoint"]; ck != "" && exists(ck) {
			return fmt.Errorf("checkpoint %s already exists: continue it with -resume %s, or remove it to start over", ck, ck)
		}
		return nil
	}
	for _, f := range snapshotFlags {
		if _, ok := given[f]; ok {
			return fmt.Errorf("-%s is fixed by the snapshot -resume continues", f)
		}
	}
	if ck, ok := given["checkpoint"]; ok && ck != res {
		return errors.New("-resume keeps checkpointing to its own file: drop -checkpoint or give the same path")
	}
	if !exists(res) {
		return fmt.Errorf("-resume %s: no checkpoint there", res)
	}
	return nil
}

func usageErr(err error) {
	fmt.Fprintln(os.Stderr, "mucfuzz:", err)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	flag.Parse()
	given := map[string]string{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() })
	if err := checkFlags(given, durable.Exists); err != nil {
		usageErr(err)
	}
	spec.Tenant = *tenant
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		usageErr(err)
	}

	if *submitTo != "" {
		// Service delegation: the daemon builds the campaign from the
		// same spec (serve.Build), so it computes what -macro would
		// here.
		if err := submitJob(*submitTo, *spec); err != nil {
			fatal(err)
		}
		return
	}
	if *lint {
		runLint(seeds.Generate(spec.SeedCount, spec.Seed), serve.Arsenal(spec.MutatorSet), spec.Seed)
		return
	}

	reg := obs.NewRegistry()
	// The arsenal was LLM-generated offline; surface the token spend it
	// embodies so campaign dashboards can relate throughput to cost.
	llm.RecordArsenalCost(reg, len(serve.Arsenal(spec.MutatorSet)))

	if *resume != "" {
		*ckpt = *resume
		if _, ok := given["steps"]; !ok {
			spec.Steps = 0 // Build keeps the snapshot's budget
		}
	}

	// Flight recorder: journal to -flight, or keep only the running
	// report when just -flight-report or the live console is wanted.
	var fcfg *flight.Config
	var flightW *obs.RotatingWriter
	if *flightOut != "" || *flightRep || cli.DebugAddr != "" {
		fcfg = &flight.Config{}
		if *flightOut != "" {
			w, err := obs.OpenRotating(*flightOut, *flightMax)
			if err != nil {
				fatal(err)
			}
			flightW = w
			fcfg.Journal = w
		}
	}

	status := flight.NewStatus()
	var (
		comp  *compilersim.Compiler
		rec   *flight.Recorder
		camp  *serve.Campaign
		inj   *chaos.Injector
		stats []*fuzz.Stats
		f     *fuzz.MuCFuzz
	)
	// seed-gen spans the campaign's assembly and the observability
	// setup.
	sp := reg.Span("seed-gen")
	if *macro {
		ecfg := engine.Config{
			Workers:         *workers,
			CheckpointPath:  *ckpt,
			CheckpointEvery: *ckptEvery,
			Registry:        reg,
		}
		if *chaosSeed != 0 {
			inj = chaos.NewInjector(chaos.Config{
				Seed:                *chaosSeed,
				StreamPanicEvery:    3,
				CheckpointTearEvery: 3,
				CheckpointFailEvery: 5,
			})
			ecfg.OnStreamStart = inj.OnStreamStart
			ecfg.CheckpointTransform = inj.CheckpointTransform
			fmt.Printf("chaos armed (fault seed %d): recoverable worker panics and checkpoint corruption\n", *chaosSeed)
		}
		if cli.StatsInterval > 0 {
			next := cli.StatsInterval
			ecfg.OnEpoch = func(done, total int) {
				if done < next {
					return
				}
				for next <= done {
					next += cli.StatsInterval
				}
				agg := camp.MergedStats()
				fmt.Println("[stats] " + status.Line(done, total,
					agg.Coverage.Count(), len(agg.Crashes), agg.CompilableRatio()))
			}
		}
		var err error
		if camp, err = serve.Build(*spec, ecfg, fcfg); err != nil {
			fatal(err)
		}
		comp, rec, *spec = camp.Compiler, camp.Flight, camp.Spec
		if camp.From != "" {
			if camp.From != *ckpt {
				fmt.Printf("primary checkpoint %s failed integrity check; resuming from %s\n",
					*ckpt, camp.From)
			}
			fmt.Printf("resumed from %s: %d/%d steps done, %d epochs\n",
				*ckpt, camp.Done(), camp.Config().TotalSteps, camp.Epoch())
		}
	} else {
		serve.RegisterCampaignMetrics(reg)
		comp = serve.Compiler(spec.Compiler)
		comp.Instrument(reg)
		comp.EnableMutantCache(serve.MutantCacheEntries)
		mutators := serve.Arsenal(spec.MutatorSet)
		if fcfg != nil {
			fcfg.Streams, fcfg.TotalSteps, fcfg.Seed = 1, spec.Steps, spec.Seed
			fcfg.Registry = reg
			for _, mu := range mutators {
				fcfg.ArmNames = append(fcfg.ArmNames, mu.Name)
			}
			rec = flight.NewRecorder(*fcfg)
		}
		f = fuzz.NewMuCFuzz("muCFuzz."+spec.MutatorSet, comp, mutators,
			seeds.Generate(spec.SeedCount, spec.Seed), rand.New(rand.NewSource(spec.Seed)))
		f.StaticFilter = !spec.NoStatic
		f.Sched, _ = sched.New(spec.Sched, len(mutators)) // Validate vetted the policy
		f.Stats().Instrument(reg)
		f.InstrumentSched(reg)
		if rec != nil {
			f.AttachFlight(rec.Stream(0))
		}
	}
	if *flightBas != "" {
		// After Build: a resumed campaign's policy is its snapshot's.
		base, err := flight.BenchBaseline(*flightBas, spec.Sched)
		if err != nil {
			fatal(err)
		}
		rec.SetBaseline(base)
	}
	shutdown, err := cli.Activate(reg, "mucfuzz", flight.Routes(rec)...)
	if err != nil {
		fatal(err)
	}
	sp.End()

	sp = reg.Span("fuzz")
	if camp != nil {
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		runErr := camp.Run(ctx)
		stopSignals()
		switch {
		case errors.Is(runErr, engine.ErrInterrupted) && *ckpt != "":
			fmt.Printf("interrupted at step %d; checkpoint written to %s (continue with -resume %s)\n",
				camp.Done(), *ckpt, *ckpt)
		case errors.Is(runErr, engine.ErrInterrupted):
			fmt.Printf("interrupted at step %d (no -checkpoint set; progress lost)\n", camp.Done())
		case runErr != nil:
			fatal(runErr)
		}
		for _, w := range camp.Workers() {
			stats = append(stats, w.Stats())
		}
		fmt.Printf("campaign: %d streams on %d workers, %d epochs, shared coverage: %d edges\n",
			camp.Config().Streams, camp.Config().Workers, camp.Epoch(), camp.CoverageSnapshot().Count())
		if inj != nil {
			f := inj.Faults()
			fmt.Printf("chaos summary: %d worker panics injected, %d checkpoint writes torn, %d failed — all recovered\n",
				f.StreamPanics, f.TornWrites, f.FailedWrites)
		}
		if poisoned := camp.Poisoned(); len(poisoned) > 0 {
			var ss []int
			for s := range poisoned {
				ss = append(ss, s)
			}
			sort.Ints(ss)
			for _, s := range ss {
				fmt.Printf("stream %d poisoned at epoch %d: %s\n",
					s, poisoned[s].Epoch, poisoned[s].Reason)
			}
		}
	} else {
		// The single-stream fuzzer has no engine barriers; give the
		// recorder pseudo-epochs every microEpochTicks compilations so
		// the console and watchdogs still see periodic summaries.
		const microEpochTicks = 256
		nextEpoch := microEpochTicks
		epoch := 0
		next := cli.StatsInterval
		for f.Stats().Ticks < spec.Steps {
			f.Step()
			if rec != nil && f.Stats().Ticks >= nextEpoch {
				epoch++
				rec.EndEpoch(microEpoch(epoch, f, spec.Steps))
				for nextEpoch <= f.Stats().Ticks {
					nextEpoch += microEpochTicks
				}
			}
			if cli.StatsInterval > 0 && f.Stats().Ticks >= next {
				st := f.Stats()
				fmt.Println("[stats] " + status.Line(st.Ticks, spec.Steps,
					st.Coverage.Count(), st.UniqueCrashes(), st.CompilableRatio()))
				next += cli.StatsInterval
			}
		}
		if rec != nil {
			epoch++
			rec.EndEpoch(microEpoch(epoch, f, spec.Steps))
			st := f.Stats()
			rec.End(st.Ticks, st.Coverage.Count(), st.UniqueCrashes())
		}
		stats = append(stats, f.Stats())
		fmt.Printf("pool grew to %d programs\n", f.PoolSize())
	}
	sp.End()

	sp = reg.Span("report")
	agg := fuzz.NewStats("all")
	for _, st := range stats {
		agg.MergeFrom(st)
	}
	crashes := agg.Crashes
	fmt.Printf("target: %s-%d   mutants: %d   compilable: %.1f%%   edges: %d\n",
		comp.Name, comp.Version, agg.Total, agg.CompilableRatio(),
		agg.Coverage.Count())
	if agg.StaticRejects > 0 {
		fmt.Printf("static filter: %d mutants rejected before compilation (%d ticks saved)\n",
			agg.StaticRejects, agg.StaticRejects)
	}
	fmt.Printf("unique crashes: %d\n", len(crashes))
	if camp != nil {
		// Macro campaigns get the full triage pipeline: signature
		// bucketing across streams, deep-component-first ranking, and
		// (with -reduce) automatic witness minimization.
		rep := camp.Triage(comp, engine.TriageConfig{Reduce: spec.Reduce})
		fmt.Print(rep.Render())
		if *triageOut != "" {
			if err := rep.WriteJSON(*triageOut); err != nil {
				fatal(err)
			}
			fmt.Printf("triage report written to %s\n", *triageOut)
		}
	} else {
		var sigs []string
		for sig := range crashes {
			sigs = append(sigs, sig)
		}
		// Deterministic report order: discovery tick, then signature, so
		// equal-seed runs print identical reports even when several
		// crashes share a tick.
		sort.Slice(sigs, func(i, j int) bool {
			ci, cj := crashes[sigs[i]], crashes[sigs[j]]
			if ci.FirstTick != cj.FirstTick {
				return ci.FirstTick < cj.FirstTick
			}
			return sigs[i] < sigs[j]
		})
		for _, sig := range sigs {
			c := crashes[sig]
			fmt.Printf("  t=%-7d [%s/%s] %s\n     via %s\n     frames: %s | %s\n",
				c.FirstTick, c.Report.Component, c.Report.Kind, c.Report.Message,
				c.Via, c.Report.Frames[0], c.Report.Frames[1])
			if spec.Reduce {
				oracle := reduce.CrashOracle(comp, compilersim.DefaultOptions(), sig)
				res := reduce.Reduce(c.Input, oracle, reduce.DefaultConfig())
				fmt.Printf("     reduced input (%d -> %d bytes):\n", len(c.Input), len(res.Output))
				for _, line := range strings.Split(strings.TrimSpace(res.Output), "\n") {
					fmt.Printf("       %s\n", line)
				}
			}
		}
	}
	sp.End()

	if rec != nil {
		frep := rec.Report()
		if n := len(frep.Anomalies); n > 0 {
			fmt.Printf("flight watchdogs raised %d anomalies (see journal or -flight-report)\n", n)
		}
		if jerr := rec.JournalErr(); jerr != nil {
			fmt.Fprintf(os.Stderr, "flight journal error: %v\n", jerr)
		}
		if *flightRep {
			fmt.Print(frep.Render())
			fmt.Print(flight.RenderLatency(reg.Snapshot()))
		}
		if flightW != nil {
			if cerr := flightW.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr)
			}
			fmt.Printf("flight journal written to %s\n", *flightOut)
		}
	}

	if err := shutdown(); err != nil {
		fatal(err)
	}
}

// submitJob delegates a campaign to a running daemon: submit, watch
// until terminal, print the triage report.
func submitJob(addr string, spec serve.JobSpec) error {
	// Reads retry transient connection errors (bounded seeded backoff)
	// so a daemon restart mid-watch does not abort the delegation.
	c := &serve.Client{Addr: addr, Retry: &resil.Policy{MaxAttempts: 8}}
	id, err := c.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted to %s as %s (tenant %s)\n", addr, id, spec.Tenant)
	lastDone := -1
	rec, err := c.Wait(id, 500*time.Millisecond, 0, func(r serve.JobRecord) {
		if r.Done == lastDone {
			return
		}
		lastDone = r.Done
		fmt.Printf("job %s [%s] %d/%d steps   %d edges   %d crashes\n",
			r.ID, r.State, r.Done, r.Spec.Steps, r.Edges, r.Crashes)
	})
	if err != nil {
		return err
	}
	switch rec.State {
	case serve.Failed:
		return fmt.Errorf("job %s failed: %s", id, rec.Error)
	case serve.Quarantined:
		return fmt.Errorf("job %s quarantined: %s", id, rec.Error)
	}
	data, err := c.Results(id)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

// microEpoch summarizes the single-stream fuzzer's progress as one
// pseudo-barrier for the flight recorder.
func microEpoch(epoch int, f *fuzz.MuCFuzz, total int) flight.EpochInfo {
	st := f.Stats()
	return flight.EpochInfo{
		Epoch: epoch, Done: st.Ticks, Total: total, Edges: st.Coverage.Count(),
		Streams: []flight.StreamInfo{{
			Stream: 0, Ticks: st.Ticks, Total: st.Total,
			Crashes: len(st.Crashes), Edges: st.Coverage.Count(),
			Pool: f.PoolSize(), Sched: f.SchedState(),
		}},
	}
}

// runLint is the standalone shift-left report: it semantically analyzes
// the seed corpus (which must be clean) and one sampled mutant per
// mutator, tallying diagnostics per check.
func runLint(pool []string, mutators []*muast.Mutator, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	perCheck := map[string]int{}
	tally := func(src string) (errs int) {
		for _, d := range mutcheck.Analyze(src) {
			perCheck[d.Check]++
			if d.Severity == mutcheck.Error {
				errs++
			}
		}
		return errs
	}
	seedErrs := 0
	for _, s := range pool {
		seedErrs += tally(s)
	}
	fmt.Printf("seed corpus: %d programs, %d front-end errors (want 0)\n",
		len(pool), seedErrs)

	sampled, rejected := 0, 0
	for _, mu := range mutators {
		p := pool[rng.Intn(len(pool))]
		mgr, err := muast.NewManager(p, rng)
		if err != nil {
			continue
		}
		mutant, ok := mu.Apply(p, mgr)
		if !ok {
			continue
		}
		sampled++
		if tally(mutant) > 0 {
			rejected++
			fmt.Printf("  %-36s would be statically rejected\n", mu.Name)
		}
	}
	fmt.Printf("sampled %d mutants (one per applicable mutator): %d statically rejected\n",
		sampled, rejected)
	var checks []string
	for c := range perCheck {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, c := range checks {
		fmt.Printf("  %-24s %d\n", c, perCheck[c])
	}
}
