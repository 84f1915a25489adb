package metamut_test

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// The pinned campaigns run the committed benchmark's two fuzzing
// workloads (repobench's macro_gcc and micro_clang) at exactly their
// shapes, over four fixed sub-seeds, and compare a hash of the full
// fuzzing state at every epoch barrier (macro) or every 100 ticks
// (micro) with the record in testdata/pins. A change that moves any
// output fails here and names the first barrier that moved. The tests
// also run the benchmark's output checks: every crash witness must
// reproduce its signature on a fresh compiler, and every corpus program
// must pass the front end.
const (
	pinSeedCount   = 120
	pinMutantCache = 4096
	pinWorkers     = 2
	pinMacroStream = 4
	pinMacroSteps  = 1500
	pinMicroTicks  = 2000
	pinMicroEvery  = 100
)

var pinSubSeeds = []int64{7000, 7001, 7002, 7003}

// pinRegistry pre-registers the campaign metric schema, as the CLIs do.
func pinRegistry() *obs.Registry {
	reg := obs.NewRegistry()
	fuzz.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	return reg
}

// pinStream is one fuzzing stream's accounting and program pool.
type pinStream struct {
	stats  *fuzz.Stats
	corpus []string
}

// pinLine summarizes and hashes the fuzzing state at one barrier:
// every stream's counts, its crashes (signature, first tick, mutator
// and witness, in signature order) and its corpus contents, plus the
// campaign's merged edge bitmap.
func pinLine(seed int64, at string, cov *fuzz.Stats, streams []pinStream) string {
	h := sha256.New()
	ticks, crashes, corpus := 0, 0, 0
	for i, s := range streams {
		st := s.stats
		fmt.Fprintf(h, "stream %d total=%d compilable=%d static=%d ticks=%d panics=%d fuel=%d edges=%d\n",
			i, st.Total, st.Compilable, st.StaticRejects, st.Ticks, st.Panics, st.FuelExhausted,
			st.Coverage.Count())
		for _, sig := range sortedSigs(st.Crashes) {
			c := st.Crashes[sig]
			fmt.Fprintf(h, "crash %q tick=%d via=%q\n%s\n", sig, c.FirstTick, c.Via, c.Input)
		}
		for _, src := range s.corpus {
			fmt.Fprintf(h, "program %d\n%s\n", len(src), src)
		}
		ticks += st.Ticks
		crashes += len(st.Crashes)
		corpus += len(s.corpus)
	}
	hashWords(h, cov.Coverage.Words())
	return fmt.Sprintf("%d %s ticks=%d edges=%d crashes=%d corpus=%d %s",
		seed, at, ticks, cov.Coverage.Count(), crashes, corpus, hex.EncodeToString(h.Sum(nil))[:16])
}

func hashWords(h hash.Hash, words []uint64) {
	var b [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(b[:], w)
		h.Write(b[:])
	}
}

func sortedSigs(m map[string]*fuzz.CrashInfo) []string {
	sigs := make([]string, 0, len(m))
	for sig := range m {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	return sigs
}

// pinMacro runs one macro_gcc campaign: gcc-14, the supervised set,
// the adaptive scheduler, the static filter and the mutant cache, 4
// streams on 2 workers for 1,500 steps. It returns one pin line per
// epoch barrier and the final streams.
func pinMacro(t *testing.T, seed int64) ([]string, []pinStream) {
	reg := pinRegistry()
	pool := seeds.Generate(pinSeedCount, seed)
	comp := compilersim.New("gcc", 14)
	comp.Instrument(reg)
	comp.EnableMutantCache(pinMutantCache)
	mutators := muast.BySet(muast.Supervised)
	mcfg := fuzz.DefaultMacroConfig()
	mcfg.StaticFilter = true
	factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		w := fuzz.NewMacroFuzzer(fmt.Sprintf("macro-%d", stream), comp, mutators, pool, rng, cov, mcfg)
		w.Sched = sched.NewAdaptive(len(mutators), sched.DefaultConfig())
		w.Stats().Instrument(reg)
		w.InstrumentSched(reg)
		return w
	}
	var camp *engine.Campaign
	var lines []string
	epoch := 0
	streams := func() []pinStream {
		var out []pinStream
		for _, w := range camp.Workers() {
			out = append(out, pinStream{stats: w.Stats(), corpus: w.Corpus()})
		}
		return out
	}
	cfg := engine.Config{
		Streams:    pinMacroStream,
		Workers:    pinWorkers,
		TotalSteps: pinMacroSteps,
		Seed:       seed,
		Registry:   reg,
		OnEpoch: func(done, _ int) {
			epoch++
			lines = append(lines, pinLine(seed, fmt.Sprintf("epoch=%d done=%d", epoch, done),
				camp.MergedStats(), streams()))
		},
	}
	camp = engine.New(cfg, factory)
	if err := camp.Run(context.Background()); err != nil {
		t.Fatalf("sub-seed %d: campaign run: %v", seed, err)
	}
	if p := camp.Poisoned(); len(p) != 0 {
		t.Errorf("sub-seed %d: poisoned streams: %v", seed, p)
	}
	return lines, streams()
}

// pinMicro runs one micro_clang stream: clang-18, every mutator, the
// uniform scheduler, the static filter and the mutant cache, Step
// driven directly for 2,000 ticks. It returns one pin line per 100
// ticks and the final stream.
func pinMicro(t *testing.T, seed int64) ([]string, []pinStream) {
	reg := pinRegistry()
	pool := seeds.Generate(pinSeedCount, seed)
	comp := compilersim.New("clang", 18)
	comp.Instrument(reg)
	comp.EnableMutantCache(pinMutantCache)
	mutators := muast.All()
	f := fuzz.NewMuCFuzz("muCFuzz.all", comp, mutators, pool, rand.New(rand.NewSource(seed)))
	f.StaticFilter = true
	f.Sched = sched.NewUniform(len(mutators))
	f.Stats().Instrument(reg)
	f.InstrumentSched(reg)
	st := f.Stats()
	var lines []string
	for next := pinMicroEvery; st.Ticks < pinMicroTicks; {
		f.Step()
		if st.Ticks >= next {
			lines = append(lines, pinLine(seed, fmt.Sprintf("tick=%d", next), st,
				[]pinStream{{stats: st, corpus: f.Corpus()}}))
			next += pinMicroEvery
		}
	}
	return lines, []pinStream{{stats: st, corpus: f.Corpus()}}
}

// checkPinnedOutputs runs the benchmark's output checks over one
// campaign's streams: each crash witness reproduces its signature on a
// fresh compiler under one of opts, and each corpus program passes
// cast.ParseAndCheck.
func checkPinnedOutputs(t *testing.T, seed int64, fresh *compilersim.Compiler, opts []compilersim.Options, streams []pinStream) {
	t.Helper()
	for i, s := range streams {
		for _, sig := range sortedSigs(s.stats.Crashes) {
			if !reproduces(fresh, s.stats.Crashes[sig].Input, sig, opts) {
				t.Errorf("sub-seed %d stream %d: crash %s does not reproduce under %d option sets",
					seed, i, sig, len(opts))
			}
		}
		for j, src := range s.corpus {
			if _, err := cast.ParseAndCheck(src); err != nil {
				t.Errorf("sub-seed %d stream %d: corpus[%d] fails ParseAndCheck: %v", seed, i, j, err)
			}
		}
	}
}

func reproduces(comp *compilersim.Compiler, src, sig string, opts []compilersim.Options) bool {
	for _, o := range opts {
		if r := comp.Compile(src, o); r.Crash != nil && r.Crash.Signature() == sig {
			return true
		}
	}
	return false
}

// macroOptionSets lists every command line MacroFuzzer's flag sampling
// can draw: -O0..-O3 times every subset of the passes it may disable,
// -O2 with nothing disabled first. A crash record does not carry its
// options, so a macro crash is reproduced by searching them all.
func macroOptionSets() []compilersim.Options {
	flags := []string{"loopvec", "strbuiltin", "cse", "simplify", "dce"}
	out := []compilersim.Options{compilersim.DefaultOptions()}
	for level := 0; level <= 3; level++ {
		for mask := 0; mask < 1<<len(flags); mask++ {
			if level == 2 && mask == 0 {
				continue
			}
			o := compilersim.Options{OptLevel: level}
			for i, fl := range flags {
				if mask&(1<<i) != 0 {
					o.DisabledPasses = append(o.DisabledPasses, fl)
				}
			}
			out = append(out, o)
		}
	}
	return out
}

// comparePins checks got against testdata/pins/<name>.txt and reports
// the first line that differs. The whole current record is logged on a
// mismatch, so an intended format change can be re-recorded from it.
func comparePins(t *testing.T, name string, got []string) {
	t.Helper()
	path := filepath.Join("testdata", "pins", name+".txt")
	var want []string
	if f, err := os.Open(path); err != nil {
		t.Errorf("%s: %v", path, err)
	} else {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
				want = append(want, line)
			}
		}
		f.Close()
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s: first difference at pin %d\n got: %s\nwant: %s\ncurrent record:\n%s",
				name, i+1, g, w, strings.Join(got, "\n"))
			return
		}
	}
}

// TestPinnedMacroGCC pins the macro_gcc workload's outputs per epoch.
func TestPinnedMacroGCC(t *testing.T) {
	fresh := compilersim.New("gcc", 14)
	opts := macroOptionSets()
	var got []string
	for _, seed := range pinSubSeeds {
		lines, streams := pinMacro(t, seed)
		got = append(got, lines...)
		checkPinnedOutputs(t, seed, fresh, opts, streams)
	}
	comparePins(t, "macro_gcc", got)
}

// pinMicroCycle is the number of sub-seeds in one repobench
// micro_clang cycle (run.py's CAMPAIGN_SUBSEEDS), counted from
// pinSubSeeds[0].
const pinMicroCycle = 24

// TestPinnedMicroClang pins the micro_clang workload's outputs every
// 100 ticks at the four pinned sub-seeds, and runs the benchmark's
// output checks over a whole cycle of sub-seeds. The stream compiles at
// -O2 only, so its crashes must reproduce there.
func TestPinnedMicroClang(t *testing.T) {
	opts := []compilersim.Options{compilersim.DefaultOptions()}
	lines := make([][]string, len(pinSubSeeds))
	t.Run("cycle", func(t *testing.T) {
		for i := 0; i < pinMicroCycle; i++ {
			seed := pinSubSeeds[0] + int64(i)
			t.Run(fmt.Sprint(seed), func(t *testing.T) {
				t.Parallel()
				got, streams := pinMicro(t, seed)
				if i < len(lines) {
					lines[i] = got
				}
				checkPinnedOutputs(t, seed, compilersim.New("clang", 18), opts, streams)
			})
		}
	})
	var got []string
	for _, l := range lines {
		got = append(got, l...)
	}
	comparePins(t, "micro_clang", got)
}
