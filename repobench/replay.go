package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/reduce"
)

// Replay sizes: enough programs for stable per-call means, few enough
// that the replay stays well under a second (reductions dominate).
const (
	replayPrograms   = 200
	replayReductions = 2
)

// runCounts are the run's own call counts that replay means scale
// into estimated layer totals.
type runCounts struct {
	ticks, checks, builds int
}

// replayStats are per-call means measured by replaying a sample of the
// run's programs through each layer's public entry points.
type replayStats struct {
	parse, reject, build, compile float64 // seconds per call
	fe, irgen, opt, backend       float64 // seconds per compile, programs that parse
	compileParsed                 float64 // full compile, same programs
	tokensPerS, nodesPerS         float64
	passS, passInstrs             []float64
}

// setLayer records one per-layer metric and how it was measured.
func (r *result) setLayer(name string, v float64, note string) {
	if r.Layers == nil {
		r.Layers = map[string]float64{}
		r.Notes = map[string]string{}
	}
	r.Layers[name] = v
	if note != "" {
		r.Notes[name] = note
	}
}

// sample draws up to n programs from progs with a seeded shuffle.
func sample(progs []string, n int, seed int64) []string {
	s := append([]string(nil), progs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	if len(s) > n {
		s = s[:n]
	}
	return s
}

// replayLayers times muast.NewManager, mutcheck.Reject,
// cast.ParseAndCheck, a full Context.Compile at -O2, and the compile
// stages one by one (GenerateIR, Optimize per StandardPasses pass,
// GenerateCode) over progs.
func replayLayers(name string, version int, progs []string) replayStats {
	passes := compilersim.StandardPasses()
	rs := replayStats{passS: make([]float64, len(passes)), passInstrs: make([]float64, len(passes))}
	if len(progs) == 0 {
		return rs
	}
	cx := compilersim.New(name, version).NewContext()
	rng := rand.New(rand.NewSource(1))
	arena := cast.NewArena()
	var parsed, tokens, nodes int
	var parseParsed float64
	for _, p := range progs {
		t0 := time.Now()
		tu, err := cast.ParseAndCheck(p)
		dParse := time.Since(t0).Seconds()
		rs.parse += dParse

		t0 = time.Now()
		mutcheck.Reject(p)
		rs.reject += time.Since(t0).Seconds()

		t0 = time.Now()
		muast.NewManager(p, rng)
		rs.build += time.Since(t0).Seconds()

		t0 = time.Now()
		cx.Compile(p, compilersim.DefaultOptions())
		dCompile := time.Since(t0).Seconds()
		rs.compile += dCompile
		if err != nil {
			continue
		}
		parsed++
		parseParsed += dParse
		toks, _ := cast.Lex(p)
		tokens += len(toks)
		nodes += cast.CountNodes(tu)
		rs.compileParsed += dCompile
		// The compiler's front end parses into a reused arena; time the
		// same entry point rather than the allocating ParseAndCheck.
		arena.Reset()
		t0 = time.Now()
		tu, err = cast.ParseAndCheckArena(p, arena)
		rs.fe += time.Since(t0).Seconds()
		if err != nil {
			continue
		}

		m := cover.NewMap()
		feats := compilersim.Features{}
		t0 = time.Now()
		prog := compilersim.GenerateIR(tu, cover.NewTracer(m, name+".ir"), feats)
		rs.irgen += time.Since(t0).Seconds()
		optTr := cover.NewTracer(m, name+".opt")
		for i := range passes {
			t0 = time.Now()
			compilersim.Optimize(prog, passes[i:i+1], optTr, feats)
			d := time.Since(t0).Seconds()
			rs.passS[i] += d
			rs.opt += d
			for _, f := range prog.Funcs {
				rs.passInstrs[i] += float64(f.InstrCount())
			}
		}
		t0 = time.Now()
		compilersim.GenerateCode(prog, cover.NewTracer(m, name+".be"), feats)
		rs.backend += time.Since(t0).Seconds()
	}
	n := float64(len(progs))
	rs.parse /= n
	rs.reject /= n
	rs.build /= n
	rs.compile /= n
	if parsed > 0 {
		if parseParsed > 0 {
			rs.tokensPerS = float64(tokens) / parseParsed
			rs.nodesPerS = float64(nodes) / parseParsed
		}
		k := float64(parsed)
		for i := range passes {
			rs.passS[i] /= k
			rs.passInstrs[i] /= k
		}
	}
	return rs
}

// setCompileLayers records the cast, mutcheck and compilersim metrics
// from a replay scaled by the run's call counts.
func (r *result) setCompileLayers(rs replayStats, c runCounts, stats *fuzz.Stats, comp *compilersim.Compiler) {
	const est = "replay mean per call x the run's call count"
	parses := c.builds + c.checks + c.ticks
	r.setLayer("cast.parses_per_tick", ratio(float64(parses), float64(c.ticks)),
		"(manager builds + static checks + compiles) / ticks; unchecked-rewrite arena parses happen inside Step after an RNG draw and are not observable from outside")
	r.setLayer("cast.parse_s", rs.parse*float64(parses), est)
	r.setLayer("cast.tokens_per_s", rs.tokensPerS, "replayed ParseAndCheck")
	r.setLayer("cast.nodes_per_s", rs.nodesPerS, "replayed ParseAndCheck")
	hits, misses := cast.ParseCacheStats()
	r.setLayer("cast.parse_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)),
		"cast.ParseCacheStats over the whole process (fresh per iteration)")

	r.setLayer("mutcheck.checks", float64(c.checks), "compiles + static rejects (every mutant that reaches the filter is checked)")
	r.setLayer("mutcheck.reject_ratio", ratio(float64(stats.StaticRejects), float64(c.checks)), "")
	r.setLayer("mutcheck.check_s", rs.reject*float64(c.checks), est)

	r.setLayer("compilersim.compiles", float64(c.ticks), "compile ticks")
	r.setLayer("compilersim.compile_s", rs.compile*float64(c.ticks), est+" (-O2, no cache)")
	r.setLayer("compilersim.ok_ratio", ratio(float64(stats.Compilable), float64(stats.Ticks)), "")
	if comp != nil {
		hits, misses := comp.CacheStats()
		r.setLayer("compilersim.mutant_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "Compiler.CacheStats")
	} else {
		r.setLayer("compilersim.mutant_cache_hit_ratio", 0, "the daemon's per-job compilers are not reachable from outside")
	}
	{
		// Shares are of the replayed Context.Compile time over programs
		// that parse. Where the stages, replayed through their public
		// entry points (which allocate what a Context reuses), sum to
		// more than that, they are shares of the stage sum instead and
		// nothing is unattributed.
		stages := rs.fe + rs.irgen + rs.opt + rs.backend
		base := max(rs.compileParsed, stages)
		const stage = "replayed stage time / max(replayed Context.Compile time, stage sum), programs that parse"
		r.setLayer("compilersim.stage_share.frontend", ratio(rs.fe, base), stage+"; ParseAndCheckArena")
		r.setLayer("compilersim.stage_share.irgen", ratio(rs.irgen, base), stage+"; GenerateIR")
		r.setLayer("compilersim.stage_share.opt", ratio(rs.opt, base), stage+"; Optimize, one StandardPasses pass at a time")
		r.setLayer("compilersim.stage_share.backend", ratio(rs.backend, base), stage+"; GenerateCode")
		r.setLayer("compilersim.stage_share.unattributed", 1-ratio(stages, base), "compile time no replayed stage covers (coverage walk, defect triggers)")
	}
	for i, p := range compilersim.StandardPasses() {
		r.setLayer("compilersim.pass_s."+p.Name, rs.passS[i], "replay seconds per compile")
		r.setLayer("compilersim.ir_instrs."+p.Name, rs.passInstrs[i], "mean IR instructions after the pass")
	}
}

// replayReduce minimizes up to replayReductions reproduced witnesses
// with reduce.Reduce and reduce.CrashOracle, counting oracle calls.
func (r *result) replayReduce(name string, version int, ws []reproduced) {
	comp := compilersim.New(name, version)
	var calls int
	var secs, ratios float64
	n := 0
	for _, w := range ws {
		if n == replayReductions {
			break
		}
		inner := reduce.CrashOracle(comp, w.opts, w.sig)
		oracle := func(src string) bool { calls++; return inner(src) }
		t0 := time.Now()
		out := reduce.Reduce(w.input, oracle, reduce.DefaultConfig())
		secs += time.Since(t0).Seconds()
		ratios += out.Ratio(w.input)
		n++
	}
	const note = "replayed reduce.Reduce per reproduced crash witness (mean)"
	k := float64(max(n, 1))
	r.setLayer("reduce.oracle_calls", float64(calls)/k, note)
	r.setLayer("reduce.minimized_ratio", ratios/k, note+"; bytes out / bytes in")
	r.setLayer("reduce.reduce_s", secs/k, note)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finish turns a traced campaign iteration into per-layer metrics:
// live span totals, replay-estimated totals for the layers called
// only from inside a step, and the span dump.
func (t *tracer) finish(res *result, state string, streams []streamOutput, ws []reproduced, comp *compilersim.Compiler, stats *fuzz.Stats) {
	var busy [nSpanKinds]int64
	var calls [nSpanKinds]int
	var self int64
	var builds, produced, newMerges int
	var progs []string
	for _, st := range t.streams {
		for k := range busy {
			busy[k] += st.busy[k]
			calls[k] += st.calls[k]
		}
		self += st.selfNS
		builds += st.builds
		produced += st.produced
		newMerges += st.newMerges
		progs = append(progs, st.mutants...)
	}
	merges := calls[spanMerge]
	for _, s := range streams {
		progs = append(progs, s.corpus...)
	}
	for _, w := range ws {
		progs = append(progs, w.input)
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	const live = "live span total over the traced iteration"

	res.setLayer("seeds.generate_s", t.seedGen.Seconds(), "one seeds.Generate call in set-up")
	res.setLayer("muast.manager_builds", float64(builds), "Fn calls handed a new *Manager within a step")
	res.setLayer("muast.apply_calls", float64(calls[spanApply]), "")
	res.setLayer("muast.apply_s", sec(busy[spanApply]), live)
	res.setLayer("muast.applicable_ratio", ratio(float64(produced), float64(calls[spanApply])), "mutants produced / Fn calls")
	res.setLayer("muast.faults", float64(stats.Panics+stats.FuelExhausted), "Stats.Panics + Stats.FuelExhausted (recovered by design)")

	c := runCounts{ticks: stats.Ticks, checks: stats.Ticks + stats.StaticRejects, builds: builds}
	rs := replayLayers(comp.Name, comp.Version, sample(progs, replayPrograms, res.Seed))
	res.setCompileLayers(rs, c, stats, comp)
	res.setLayer("muast.build_s", rs.build*float64(builds), "replayed muast.NewManager mean x manager builds")

	res.setLayer("cover.merge_calls", float64(merges), "")
	res.setLayer("cover.merge_s", sec(busy[spanMerge]), live)
	res.setLayer("cover.new_ratio", ratio(float64(newMerges), float64(merges)), "")
	res.setLayer("sched.calls", float64(calls[spanSched]), "Order + Pick + Observe + ObserveBatch")
	res.setLayer("sched.busy_s", sec(busy[spanSched]), live)
	res.setLayer("fuzz.steps", float64(calls[spanStep]), "")
	res.setLayer("fuzz.step_s", sec(busy[spanStep]), live)
	res.setLayer("fuzz.step_self_s", sec(self), "step span minus its child spans")

	res.setLayer("engine.epochs", float64(t.epochs), "OnEpoch callbacks")
	res.setLayer("engine.barrier_wait_s", sec(t.barrierWait), "workers x epoch wall - stream step time, summed over epochs")
	for _, m := range []string{"engine.checkpoints", "engine.checkpoint_s", "engine.checkpoint_mb", "flight.events", "flight.journal_mb"} {
		res.setLayer(m, 0, "the campaign runs without checkpoint or journal, as the mucfuzz defaults do")
	}
	for _, m := range []string{"serve.submit_s", "serve.queue_wait_s", "serve.run_s", "serve.results_s", "serve.ledger_kb"} {
		res.setLayer(m, 0, "no daemon in this workload")
	}
	res.replayReduce(comp.Name, comp.Version, ws)

	stepTotal := busy[spanStep]
	accounted := sec(busy[spanApply]+busy[spanSched]+busy[spanMerge]) +
		res.Layers["compilersim.compile_s"] + res.Layers["mutcheck.check_s"] + res.Layers["muast.build_s"]
	res.setLayer("trace.step_accounted_share", ratio(accounted, sec(stepTotal)),
		"(apply + sched + merge spans + replay-estimated compile, check and build time) / Worker.Step time")
	res.setLayer("trace.spans", float64(sumInts(calls[:])), "spans kept in memory and written to spans.jsonl")
	if err := t.dump(filepath.Join(state, "spans.jsonl")); err != nil {
		res.check(false, "write spans: %v", err)
	}
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// dump writes every span as one JSON line, stream by stream.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, st := range t.streams {
		for _, s := range st.spans {
			s.Name = spanNames[s.Kind]
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
