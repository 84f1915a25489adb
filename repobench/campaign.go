package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators" // populate the mutator registry
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// Campaign shapes. Both mirror the mucfuzz CLI defaults that
// production runs (120 seeds, static filter on, mutant cache 4096,
// full obs instrumentation); the budgets are sized so one iteration
// takes about half a second on a 2-core host and a run holds dozens.
const (
	seedCount    = 120
	mutantCache  = 4096
	benchWorkers = 2 // at most 2 worker goroutines: nproc = 2
	macroStreams = 4
	macroSteps   = 1500
	microTicks   = 2000
)

// newRegistry pre-registers the campaign metric schema, as the CLIs do.
func newRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	fuzz.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	return reg
}

// macroRig is one built macro_gcc campaign.
type macroRig struct {
	comp *compilersim.Compiler
	camp *engine.Campaign
}

// buildMacro assembles the `mucfuzz -macro` campaign: gcc-14,
// supervised set, adaptive scheduler, static filter, mutant cache, no
// checkpoint or journal. With tr set, every per-stream value the
// engine and fuzzer take from their caller is wrapped in a span.
func buildMacro(seed int64, tr *tracer) macroRig {
	reg := newRegistry()
	t0 := time.Now()
	pool := seeds.Generate(seedCount, seed)
	if tr != nil {
		tr.seedGen = time.Since(t0)
	}
	comp := compilersim.New("gcc", 14)
	comp.Instrument(reg)
	comp.EnableMutantCache(mutantCache)
	mutators := muast.BySet(muast.Supervised)
	mcfg := fuzz.DefaultMacroConfig()
	mcfg.StaticFilter = true
	factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		muts := mutators
		var st *streamTrace
		if tr != nil {
			st = tr.stream(stream)
			muts = st.wrapMutators(mutators)
			cov = tracedSink{inner: cov, st: st}
		}
		w := fuzz.NewMacroFuzzer(fmt.Sprintf("macro-%d", stream), comp, muts, pool, rng, cov, mcfg)
		var s sched.Scheduler = sched.NewAdaptive(len(muts), sched.DefaultConfig())
		if st != nil {
			s = &tracedSched{inner: s, st: st}
		}
		w.Sched = s
		w.Stats().Instrument(reg)
		w.InstrumentSched(reg)
		if st != nil {
			return &tracedWorker{Worker: w, st: st}
		}
		return w
	}
	cfg := engine.Config{
		Streams:    macroStreams,
		Workers:    benchWorkers,
		TotalSteps: macroSteps,
		Seed:       seed,
		Registry:   reg,
	}
	if tr != nil {
		cfg.OnEpoch = tr.onEpoch
	}
	return macroRig{comp: comp, camp: engine.New(cfg, factory)}
}

func runMacro(res *result, seed int64, state string, trace bool) error {
	var tr *tracer
	if trace {
		tr = newTracer(benchWorkers)
	}
	rig := timeSetup(res, func() macroRig {
		if tr != nil {
			tr.reset()
		}
		return buildMacro(seed, tr)
	})
	probe := startRun()
	t0 := time.Now()
	if tr != nil {
		tr.start()
	}
	runErr := rig.camp.Run(context.Background())
	res.WallS = time.Since(t0).Seconds()
	probe.finish(res)
	res.PeakRSSMB = peakRSSMB()
	res.check(runErr == nil, "campaign run: %v", runErr)
	poisoned := rig.camp.Poisoned()
	res.check(len(poisoned) == 0, "poisoned streams: %v", poisoned)

	agg := rig.camp.MergedStats()
	res.Steps = rig.camp.Done()
	res.Ticks = agg.Ticks
	res.EdgesDone = agg.Coverage.Count()
	res.FinalEdges = float64(res.EdgesDone)
	res.UniqueCrashes = float64(len(agg.Crashes))

	var streams []streamOutput
	for i, w := range rig.camp.Workers() {
		streams = append(streams, streamOutput{
			label: fmt.Sprintf("stream %d", i), stats: w.Stats(), corpus: w.Corpus()})
	}
	res.Digest = campaignDigest(res, agg.Crashes, streams)
	checked := checkStreams(res, "gcc", 14, allOptionSets(), streams)
	if tr != nil {
		tr.finish(res, state, streams, checked, rig.comp, agg)
	}
	return nil
}

// microRig is one built micro_clang stream.
type microRig struct {
	comp *compilersim.Compiler
	f    *fuzz.MuCFuzz
	step func()
}

// buildMicro assembles the `mucfuzz -compiler clang -set all -sched
// uniform` stream: Algorithm 1 over the full arsenal at -O2, with the
// static filter and the CLI's mutant cache. Step is driven directly,
// outside the engine.
func buildMicro(seed int64, tr *tracer) microRig {
	reg := newRegistry()
	t0 := time.Now()
	pool := seeds.Generate(seedCount, seed)
	if tr != nil {
		tr.seedGen = time.Since(t0)
	}
	comp := compilersim.New("clang", 18)
	comp.Instrument(reg)
	comp.EnableMutantCache(mutantCache)
	mutators := muast.All()
	var st *streamTrace
	if tr != nil {
		st = tr.stream(0)
		mutators = st.wrapMutators(mutators)
	}
	f := fuzz.NewMuCFuzz("muCFuzz.all", comp, mutators, pool, rand.New(rand.NewSource(seed)))
	f.StaticFilter = true
	var s sched.Scheduler = sched.NewUniform(len(mutators))
	if st != nil {
		s = &tracedSched{inner: s, st: st}
	}
	f.Sched = s
	f.Stats().Instrument(reg)
	f.InstrumentSched(reg)
	rig := microRig{comp: comp, f: f, step: f.Step}
	if st != nil {
		rig.step = (&tracedWorker{Worker: f, st: st}).Step
	}
	return rig
}

func runMicro(res *result, seed int64, state string, trace bool) error {
	var tr *tracer
	if trace {
		tr = newTracer(1)
	}
	rig := timeSetup(res, func() microRig {
		if tr != nil {
			tr.reset()
		}
		return buildMicro(seed, tr)
	})
	probe := startRun()
	t0 := time.Now()
	if tr != nil {
		tr.start()
	}
	st := rig.f.Stats()
	for st.Ticks < microTicks {
		rig.step()
	}
	res.WallS = time.Since(t0).Seconds()
	probe.finish(res)
	res.PeakRSSMB = peakRSSMB()

	res.Steps = st.Ticks
	res.Ticks = st.Ticks
	res.EdgesDone = st.Coverage.Count()
	res.FinalEdges = float64(res.EdgesDone)
	res.UniqueCrashes = float64(len(st.Crashes))
	streams := []streamOutput{{label: "stream 0", stats: st, corpus: rig.f.Corpus()}}
	res.Digest = campaignDigest(res, st.Crashes, streams)
	// The RQ1 fuzzer compiles at -O2 only, so its crashes must
	// reproduce there.
	checked := checkStreams(res, "clang", 18, []compilersim.Options{compilersim.DefaultOptions()}, streams)
	if tr != nil {
		tr.finish(res, state, streams, checked, rig.comp, st)
	}
	return nil
}

// streamOutput is what one fuzzing stream leaves behind.
type streamOutput struct {
	label  string
	stats  *fuzz.Stats
	corpus []string
}

// campaignDigest hashes steps, ticks, edges, the sorted crash
// signatures and the per-stream corpus sizes.
func campaignDigest(res *result, crashes map[string]*fuzz.CrashInfo, streams []streamOutput) string {
	sigs := make([]string, 0, len(crashes))
	for sig := range crashes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	res.CrashSigs = sigs
	sizes := make([]int, len(streams))
	for i, s := range streams {
		sizes[i] = len(s.corpus)
	}
	return digestOf(res.Workload, res.Steps, res.Ticks, res.FinalEdges, sigs, sizes)
}

// reproduced is one crash witness whose signature the checks
// reproduced, with the option set that did it.
type reproduced struct {
	sig   string
	input string
	opts  compilersim.Options
}

// checkStreams requires every per-stream crash record to reproduce its
// signature on a fresh compiler under one of opts, and every corpus
// program to pass the front end. It returns the reproduced witnesses.
func checkStreams(res *result, name string, version int, opts []compilersim.Options, streams []streamOutput) []reproduced {
	fresh := compilersim.New(name, version)
	var out []reproduced
	for _, s := range streams {
		sigs := make([]string, 0, len(s.stats.Crashes))
		for sig := range s.stats.Crashes {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			c := s.stats.Crashes[sig]
			o, ok := reproduce(fresh, c.Input, sig, opts)
			res.check(ok, "%s crash %s does not reproduce under %d option sets", s.label, sig, len(opts))
			if ok {
				out = append(out, reproduced{sig: sig, input: c.Input, opts: o})
			}
		}
		checkCorpus(res, s.label, s.corpus)
	}
	return out
}

// reproduce recompiles src under each option set until one crashes
// with signature sig.
func reproduce(comp *compilersim.Compiler, src, sig string, opts []compilersim.Options) (compilersim.Options, bool) {
	for _, o := range opts {
		r := comp.Compile(src, o)
		if r.Crash != nil && r.Crash.Signature() == sig {
			return o, true
		}
	}
	return compilersim.Options{}, false
}

// sampledFlags are the passes MacroFuzzer's flag sampling may disable,
// in the order it appends them.
var sampledFlags = []string{"loopvec", "strbuiltin", "cse", "simplify", "dce"}

// allOptionSets lists every command line the macro fuzzer's flag
// sampling can draw: -O0..-O3 times every subset of sampledFlags
// (128 sets), -O2 with nothing disabled first. CrashInfo does not
// record the options a crash was found under, so a macro crash is
// reproduced by searching them all.
func allOptionSets() []compilersim.Options {
	out := []compilersim.Options{compilersim.DefaultOptions()}
	for level := 0; level <= 3; level++ {
		for mask := 0; mask < 1<<len(sampledFlags); mask++ {
			if level == 2 && mask == 0 {
				continue
			}
			o := compilersim.Options{OptLevel: level}
			for i, fl := range sampledFlags {
				if mask&(1<<i) != 0 {
					o.DisabledPasses = append(o.DisabledPasses, fl)
				}
			}
			out = append(out, o)
		}
	}
	return out
}
