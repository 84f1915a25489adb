package fuzz

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/seeds"
)

func TestStatsZeroValues(t *testing.T) {
	s := NewStats("x")
	if s.CompilableRatio() != 0 {
		t.Error("empty ratio not 0")
	}
	if s.UniqueCrashes() != 0 || len(s.CrashTimeline()) != 0 {
		t.Error("empty stats report crashes")
	}
}

func TestStatsRecordAccounting(t *testing.T) {
	s := NewStats("x")
	okRes := compilersim.Result{OK: true, Coverage: cover.NewMap()}
	okRes.Coverage.Set(1)
	if !s.Record("a", "m", okRes) {
		t.Error("first new edge not reported")
	}
	if s.Record("a", "m", okRes) {
		t.Error("same edges reported as new twice")
	}
	badRes := compilersim.Result{OK: false, Coverage: cover.NewMap()}
	s.Record("b", "m", badRes)
	if s.Total != 3 || s.Compilable != 2 {
		t.Errorf("total=%d compilable=%d", s.Total, s.Compilable)
	}
	if r := s.CompilableRatio(); r < 66 || r > 67 {
		t.Errorf("ratio = %.2f", r)
	}
}

func TestMacroFlagSampling(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	cfg := DefaultMacroConfig()
	f := NewMacroFuzzer("m", comp, muast.All(), seeds.Generate(10, 1),
		rand.New(rand.NewSource(3)), &testSink{}, cfg)
	levels := map[int]int{}
	disabled := 0
	for i := 0; i < 400; i++ {
		o := f.sampleOptions()
		levels[o.OptLevel]++
		disabled += len(o.DisabledPasses)
	}
	for lvl := 0; lvl <= 3; lvl++ {
		if levels[lvl] == 0 {
			t.Errorf("-O%d never sampled", lvl)
		}
	}
	if disabled == 0 {
		t.Error("pass-disabling flags never sampled")
	}
}

func TestUncheckedRewriteProducesOutput(t *testing.T) {
	arena := newMutationArena(rand.New(rand.NewSource(9)))
	src := seeds.Generate(5, 1)[4]
	produced := 0
	for i := 0; i < 30; i++ {
		if out, ok := uncheckedRewriteArena(src, arena); ok {
			produced++
			if out == src {
				t.Error("unchecked rewrite was a no-op")
			}
		}
	}
	if produced == 0 {
		t.Fatal("unchecked rewrite never applied")
	}
}

func TestMergedCrashesKeepsEarliest(t *testing.T) {
	merged := NewStats("merged")
	for _, tick := range []int{50, 10, 30} {
		w := NewStats("w")
		w.Crashes["sig"] = &CrashInfo{FirstTick: tick}
		merged.MergeFrom(w)
	}
	if got := merged.Crashes["sig"].FirstTick; got != 10 {
		t.Errorf("earliest = %d, want 10", got)
	}
}

func TestMergeFrom(t *testing.T) {
	a := NewStats("a")
	a.Total, a.Compilable, a.Ticks = 10, 7, 10
	a.Crashes["s1"] = &CrashInfo{FirstTick: 40}
	a.Crashes["s2"] = &CrashInfo{FirstTick: 5}
	a.Coverage.Set(1)

	b := NewStats("b")
	b.Total, b.Compilable, b.Ticks = 4, 1, 4
	b.Crashes["s1"] = &CrashInfo{FirstTick: 8} // earlier discovery wins
	b.Crashes["s3"] = &CrashInfo{FirstTick: 2}
	b.Coverage.Set(2)

	m := NewStats("m")
	m.MergeFrom(a)
	m.MergeFrom(b)
	m.MergeFrom(nil) // no-op

	if m.Total != 14 || m.Compilable != 8 || m.Ticks != 14 {
		t.Errorf("totals = %d/%d/%d, want 14/8/14", m.Total, m.Compilable, m.Ticks)
	}
	if m.UniqueCrashes() != 3 {
		t.Errorf("crashes = %d, want 3", m.UniqueCrashes())
	}
	if m.Crashes["s1"].FirstTick != 8 {
		t.Errorf("s1 FirstTick = %d, want earliest 8", m.Crashes["s1"].FirstTick)
	}
	if m.Coverage.Count() != 2 {
		t.Errorf("coverage = %d, want 2", m.Coverage.Count())
	}
	// Sources must be untouched.
	if a.Total != 10 || b.UniqueCrashes() != 2 || a.Crashes["s1"].FirstTick != 40 {
		t.Error("MergeFrom mutated a source")
	}
}

func TestRecordInstrumented(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewStats("f1")
	s.Instrument(reg)

	okRes := compilersim.Result{OK: true, Coverage: cover.NewMap()}
	okRes.Coverage.Set(7)
	s.Record("src", "MutA", okRes)
	s.Record("src", "MutA+MutB", okRes) // Havoc chain credits MutA
	crashRes := compilersim.Result{
		Coverage: cover.NewMap(),
		Crash: &compilersim.CrashReport{
			Component: compilersim.FrontEnd,
			Message:   "boom",
			Frames:    [2]string{"f", "g"},
		},
	}
	s.Record("src", "MutB", crashRes)

	snap := reg.Snapshot()
	if got := snap.Counter("compile_ticks"); got != 3 {
		t.Errorf("compile_ticks = %d, want 3", got)
	}
	if got := snap.Counter("mutants_total", "MutA", "ok"); got != 2 {
		t.Errorf("mutants_total{MutA,ok} = %d, want 2 (chain credited to head)", got)
	}
	if got := snap.Counter("mutants_total", "MutB", "crash"); got != 1 {
		t.Errorf("mutants_total{MutB,crash} = %d, want 1", got)
	}
	if got := snap.Counter("crashes_unique_total", "f1"); got != 1 {
		t.Errorf("crashes_unique_total = %d, want 1", got)
	}
}

func TestResultOutcomeLabels(t *testing.T) {
	rep := &compilersim.CrashReport{}
	cases := []struct {
		res  compilersim.Result
		want string
	}{
		{compilersim.Result{OK: true}, "ok"},
		{compilersim.Result{Hang: true, Crash: rep}, "hang"},
		{compilersim.Result{Crash: rep}, "crash"},
		{compilersim.Result{}, "reject"},
	}
	for _, c := range cases {
		if got := resultOutcome(c.res); got != c.want {
			t.Errorf("resultOutcome(%+v) = %q, want %q", c.res, got, c.want)
		}
	}
	if primaryMutator("A+B+C") != "A" || primaryMutator("A") != "A" {
		t.Error("primaryMutator mishandled chains")
	}
}

// TestInstrumentedFuzzersConcurrent drives independent fuzzers from
// separate goroutines against one shared registry — the macro-campaign
// shape — and must stay clean under -race.
func TestInstrumentedFuzzersConcurrent(t *testing.T) {
	reg := obs.NewRegistry()
	comp := compilersim.New("gcc", 14)
	comp.Instrument(reg)
	pool := seeds.Generate(20, 1)
	const workers, steps = 4, 60

	var wg sync.WaitGroup
	fs := make([]*MuCFuzz, workers)
	for i := 0; i < workers; i++ {
		fs[i] = NewMuCFuzz(fmt.Sprintf("w%d", i), comp, muast.All(), pool,
			rand.New(rand.NewSource(int64(i))))
		fs[i].Stats().Instrument(reg)
		wg.Add(1)
		go func(f *MuCFuzz) {
			defer wg.Done()
			for f.Stats().Ticks < steps {
				f.Step()
			}
		}(fs[i])
	}
	wg.Wait()

	total := 0
	for _, f := range fs {
		total += f.Stats().Ticks
	}
	snap := reg.Snapshot()
	if got := snap.Counter("compile_ticks"); got != int64(total) {
		t.Errorf("compile_ticks = %d, want %d", got, total)
	}
	if got := snap.CounterSum("mutants_total"); got != int64(total) {
		t.Errorf("mutants_total sum = %d, want %d", got, total)
	}
	if got := snap.CounterSum("compile_results_total"); got != int64(total) {
		t.Errorf("compile_results_total sum = %d, want %d", got, total)
	}
}

func TestCorpusRoundTrip(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	pool := seeds.Generate(5, 1)
	f := NewMacroFuzzer("m", comp, muast.All(), pool,
		rand.New(rand.NewSource(2)), &testSink{}, DefaultMacroConfig())
	got := f.Corpus()
	if !reflect.DeepEqual(got, pool) {
		t.Fatal("Corpus does not reflect the seed pool")
	}
	got[0] = "int mutated;"
	if f.Corpus()[0] == got[0] {
		t.Error("Corpus aliases the internal pool")
	}
	f.SetCorpus([]string{"int main(void) { return 0; }"})
	if len(f.Corpus()) != 1 {
		t.Errorf("SetCorpus pool size = %d, want 1", len(f.Corpus()))
	}

	mc := NewMuCFuzz("u", comp, muast.All(), pool, rand.New(rand.NewSource(2)))
	if !reflect.DeepEqual(mc.Corpus(), pool) {
		t.Fatal("MuCFuzz.Corpus does not reflect the seed pool")
	}
	mc.SetCorpus(pool[:2])
	if mc.PoolSize() != 2 {
		t.Errorf("MuCFuzz.SetCorpus pool size = %d, want 2", mc.PoolSize())
	}
}

// TestNilSinkDisablesAdmission steps a macro worker with no coverage
// sink: the pool never grows, and nothing panics.
func TestNilSinkDisablesAdmission(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	f := NewMacroFuzzer("m", comp, muast.All(), seeds.Generate(5, 1),
		rand.New(rand.NewSource(2)), nil, DefaultMacroConfig())
	for i := 0; i < 30; i++ {
		f.Step()
	}
	if f.Stats().Total == 0 {
		t.Fatal("no mutant reached the compiler")
	}
	if f.PoolSize() != 5 {
		t.Errorf("pool size = %d, want the 5 seeds (nil sink admits nothing)", f.PoolSize())
	}
}
