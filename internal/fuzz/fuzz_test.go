package fuzz

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

func testPool(t testing.TB, n int) []string {
	t.Helper()
	return seeds.Generate(n, 42)
}

func TestMuCFuzzGrowsCoverageAndPool(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	f := NewMuCFuzz("muCFuzz.s", comp, muast.BySet(muast.Supervised),
		testPool(t, 20), rand.New(rand.NewSource(7)))
	for i := 0; i < 120; i++ {
		f.Step()
	}
	st := f.Stats()
	if st.Total == 0 {
		t.Fatal("no mutants produced")
	}
	if st.Coverage.Count() == 0 {
		t.Fatal("no coverage accumulated")
	}
	if f.PoolSize() <= 20 {
		t.Errorf("pool did not grow beyond seeds: %d", f.PoolSize())
	}
	ratio := st.CompilableRatio()
	if ratio < 50 {
		t.Errorf("compilable ratio %.1f%%, want semantic-aware >= 50%%", ratio)
	}
	t.Logf("mutants=%d compilable=%.1f%% edges=%d crashes=%d pool=%d",
		st.Total, ratio, st.Coverage.Count(), st.UniqueCrashes(), f.PoolSize())
}

func TestMuCFuzzFindsDeepCrashes(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	f := NewMuCFuzz("muCFuzz.s", comp, muast.BySet(muast.Supervised),
		testPool(t, 30), rand.New(rand.NewSource(11)))
	deepCrashes := func() int {
		n := 0
		for _, c := range f.Stats().Crashes {
			if c.Report.Component != compilersim.FrontEnd {
				n++
			}
		}
		return n
	}
	for i := 0; i < 4000 && deepCrashes() == 0; i++ {
		f.Step()
	}
	st := f.Stats()
	if st.UniqueCrashes() == 0 {
		t.Fatalf("found no crashes in %d mutants", st.Total)
	}
	deep := 0
	for _, c := range st.Crashes {
		if c.Report.Component != compilersim.FrontEnd {
			deep++
		}
		if c.Via == "" {
			t.Error("crash without attribution")
		}
	}
	if deep == 0 {
		t.Error("semantic-aware mutators found only front-end crashes")
	}
	t.Logf("crashes=%d (deep=%d) after %d mutants", st.UniqueCrashes(), deep, st.Total)
}

func TestCrashDedupBySignature(t *testing.T) {
	s := NewStats("x")
	crash := &compilersim.CrashReport{
		BugID: "b1", Frames: [2]string{"f1", "f2"},
	}
	res := compilersim.Result{Crash: crash, Coverage: newEmptyCov()}
	s.Record("src1", "m1", res)
	s.Record("src2", "m2", res)
	if s.UniqueCrashes() != 1 {
		t.Fatalf("unique crashes = %d, want 1 (same top-2 frames)", s.UniqueCrashes())
	}
	if s.Crashes["f1|f2"].Via != "m1" {
		t.Error("first discovery should be kept")
	}
	crash2 := &compilersim.CrashReport{
		BugID: "b2", Frames: [2]string{"f1", "other"},
	}
	s.Record("src3", "m3", compilersim.Result{Crash: crash2, Coverage: newEmptyCov()})
	if s.UniqueCrashes() != 2 {
		t.Fatalf("unique crashes = %d, want 2", s.UniqueCrashes())
	}
}

func TestCrashTimelineMonotonic(t *testing.T) {
	comp := compilersim.New("clang", 18)
	f := NewMuCFuzz("m", comp, muast.All(), testPool(t, 20),
		rand.New(rand.NewSource(3)))
	for i := 0; i < 600; i++ {
		f.Step()
	}
	tl := f.Stats().CrashTimeline()
	for i := 1; i < len(tl); i++ {
		if tl[i][0] < tl[i-1][0] || tl[i][1] != tl[i-1][1]+1 {
			t.Fatalf("timeline not monotone: %v", tl)
		}
	}
}

func TestMacroFuzzerHavocAndFlags(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	shared := &testSink{}
	var workers []*MacroFuzzer
	for i := 0; i < 4; i++ {
		workers = append(workers, NewMacroFuzzer("macro", comp, muast.All(),
			testPool(t, 10), rand.New(rand.NewSource(int64(100+i))), shared,
			DefaultMacroConfig()))
	}
	// Scheduling is internal/engine's job; here we exercise the worker
	// mechanics (havoc, flag sampling, shared-coverage admission) alone.
	for i := 0; i < 400; i++ {
		workers[i%len(workers)].Step()
	}
	total := 0
	for _, w := range workers {
		total += w.Stats().Total
	}
	if total == 0 {
		t.Fatal("macro fuzzer produced nothing")
	}
	if shared.m.Count() == 0 {
		t.Fatal("shared coverage empty")
	}
	merged := NewStats("merged")
	for _, w := range workers {
		merged.MergeFrom(w.Stats())
	}
	t.Logf("macro: %d mutants, %d shared edges, %d unique crashes",
		total, shared.m.Count(), len(merged.Crashes))
}

func TestMacroResourceLimit(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	// A pool program past the resource limit: the padding comment is
	// trivia no mutator touches, so every offspring stays oversized.
	big := "/*" + strings.Repeat("x", maxProgramSize) + "*/\n" + testPool(t, 1)[0]
	if _, err := cast.ParseAndCheck(big); err != nil {
		t.Fatalf("padded pool program does not parse: %v", err)
	}
	f := NewMacroFuzzer("macro", comp, muast.All(), []string{big},
		rand.New(rand.NewSource(1)), &testSink{}, DefaultMacroConfig())
	for i := 0; i < 50; i++ {
		f.Step()
	}
	if f.Stats().Total != 0 {
		t.Errorf("oversized mutants were compiled: %d", f.Stats().Total)
	}
}

func newEmptyCov() *cover.Map { return cover.NewMap() }

// testSink is a single-goroutine CoverageSink over one map; inside a
// campaign the engine's per-epoch view plays this role.
type testSink struct{ m cover.Map }

func (s *testSink) MergeIfNew(m *cover.Map) bool {
	if !s.m.HasNew(m) {
		return false
	}
	s.m.Merge(m)
	return true
}

func TestStaticFilterSavesTicks(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	f := NewMuCFuzz("muCFuzz.static", comp, muast.BySet(muast.Supervised),
		testPool(t, 20), rand.New(rand.NewSource(7)))
	f.StaticFilter = true
	for i := 0; i < 120; i++ {
		f.Step()
	}
	st := f.Stats()
	if st.StaticRejects == 0 {
		t.Fatal("static filter rejected nothing (unchecked rewrites should trip it)")
	}
	if st.Ticks != st.Total-st.StaticRejects {
		t.Errorf("ticks=%d, want Total-StaticRejects=%d (rejects must not tick)",
			st.Ticks, st.Total-st.StaticRejects)
	}
	// Soundness downstream of mutcheck's contract: everything that
	// reached the compiler and everything rejected stays consistent —
	// compilable counts only ticked mutants.
	if st.Compilable > st.Ticks {
		t.Errorf("compilable=%d > ticks=%d", st.Compilable, st.Ticks)
	}
	t.Logf("mutants=%d static-rejects=%d ticks=%d compilable=%.1f%%",
		st.Total, st.StaticRejects, st.Ticks, st.CompilableRatio())
}

func TestStaticRejectMergeFrom(t *testing.T) {
	a, b := NewStats("a"), NewStats("b")
	a.RecordStaticReject("M1", "parse-error")
	b.RecordStaticReject("M2", "sema-error")
	b.RecordStaticReject("M2+M3", "parse-error")
	a.MergeFrom(b)
	if a.Total != 3 || a.StaticRejects != 3 || a.Ticks != 0 {
		t.Errorf("merged total=%d rejects=%d ticks=%d, want 3/3/0",
			a.Total, a.StaticRejects, a.Ticks)
	}
}
