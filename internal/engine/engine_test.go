package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// macroFactory builds the standard test campaign: macro fuzzers over
// one shared (stateless, race-safe) compiler.
func macroFactory(comp *compilersim.Compiler, pool []string) Factory {
	return func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) Worker {
		return fuzz.NewMacroFuzzer(fmt.Sprintf("s%d", stream), comp, muast.All(),
			pool, rng, cov, fuzz.DefaultMacroConfig())
	}
}

// mucFactory builds self-guided μCFuzz streams (no shared sink).
func mucFactory(comp *compilersim.Compiler, pool []string) Factory {
	return func(stream int, rng *rand.Rand, _ fuzz.CoverageSink) Worker {
		return fuzz.NewMuCFuzz(fmt.Sprintf("u%d", stream), comp, muast.All(), pool, rng)
	}
}

// fingerprint condenses everything the campaign is supposed to
// reproduce deterministically: the merged crash set (signature, tick,
// attribution, exact witness), coverage, and totals.
func fingerprint(c *Campaign) string {
	st := c.MergedStats()
	lines := make([]string, 0, len(st.Crashes))
	for sig, ci := range st.Crashes {
		lines = append(lines, fmt.Sprintf("%s|%d|%s|%08x",
			sig, ci.FirstTick, ci.Via, cover.HashString(ci.Input)))
	}
	sort.Strings(lines)
	return fmt.Sprintf("crashes=%v cov=%d total=%d compilable=%d ticks=%d rejects=%d",
		lines, st.Coverage.Count(), st.Total, st.Compilable, st.Ticks, st.StaticRejects)
}

func TestCampaignRunsBudget(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	pool := seeds.Generate(10, 1)
	reg := obs.NewRegistry()
	cfg := Config{Streams: 6, Workers: 3, StepsPerEpoch: 10, TotalSteps: 333,
		Seed: 7, Registry: reg}
	c := New(cfg, macroFactory(comp, pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Done() != 333 {
		t.Errorf("done = %d, want 333", c.Done())
	}
	st := c.MergedStats()
	if st.Total == 0 || st.Coverage.Count() == 0 {
		t.Fatalf("campaign produced nothing: %+v", st)
	}
	// 333 steps at 60/epoch → 5 full epochs + 1 partial.
	wantEpochs := int64(6)
	snap := reg.Snapshot()
	if got := snap.Counter("engine_epochs_total"); got != wantEpochs {
		t.Errorf("engine_epochs_total = %d, want %d", got, wantEpochs)
	}
	if got := reg.Gauge("engine_steps_done").With().Value(); got != 333 {
		t.Errorf("engine_steps_done = %d, want 333", got)
	}
	if got := reg.Gauge("engine_queue_depth").With().Value(); got != 0 {
		t.Errorf("engine_queue_depth = %d after run, want 0", got)
	}
	if got := reg.Histogram("engine_epoch_seconds", nil).With().Count(); got != wantEpochs {
		t.Errorf("engine_epoch_seconds count = %d, want %d", got, wantEpochs)
	}
	if got := reg.Histogram("engine_sync_seconds", nil).With().Count(); got != wantEpochs {
		t.Errorf("engine_sync_seconds count = %d, want %d", got, wantEpochs)
	}
}

func TestEpochPlan(t *testing.T) {
	sum := func(xs []int) int {
		n := 0
		for _, x := range xs {
			n += x
		}
		return n
	}
	// Full epoch: everyone gets StepsPerEpoch.
	plan := epochPlan(4, 8, 1000, 0)
	if sum(plan) != 32 {
		t.Errorf("full epoch sum = %d, want 32", sum(plan))
	}
	for s, n := range plan {
		if n != 8 {
			t.Errorf("stream %d: %d steps, want 8", s, n)
		}
	}
	// Final partial epoch: remainder distributed, sum exact.
	plan = epochPlan(4, 8, 1000, 990)
	if sum(plan) != 10 {
		t.Errorf("partial epoch sum = %d, want 10", sum(plan))
	}
	// Pure function of done: identical inputs, identical plan.
	a := epochPlan(7, 5, 999, 35)
	b := epochPlan(7, 5, 999, 35)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("epochPlan not deterministic")
		}
	}
}

func TestOnEpochProgressMonotone(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	pool := seeds.Generate(5, 1)
	var calls []int
	cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 25, TotalSteps: 450,
		Seed: 3, OnEpoch: func(done, total int) {
			if total != 450 {
				t.Errorf("total = %d, want 450", total)
			}
			calls = append(calls, done)
		}}
	c := New(cfg, macroFactory(comp, pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(calls) == 0 {
		t.Fatal("no progress callbacks")
	}
	for i := 1; i < len(calls); i++ {
		if calls[i] <= calls[i-1] {
			t.Fatalf("progress not monotone: %v", calls)
		}
	}
	if last := calls[len(calls)-1]; last != 450 {
		t.Errorf("final progress = %d, want 450", last)
	}
}

func TestMuCFuzzStreams(t *testing.T) {
	comp := compilersim.New("gcc", 14)
	pool := seeds.Generate(20, 1)
	cfg := Config{Streams: 4, Workers: 4, StepsPerEpoch: 25, TotalSteps: 600, Seed: 11}
	c := New(cfg, mucFactory(comp, pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.MergedStats()
	if st.Coverage.Count() == 0 {
		t.Fatal("self-guided streams accumulated no coverage")
	}
	// Self-guided pools must have grown somewhere.
	grew := false
	for _, w := range c.Workers() {
		if len(w.Corpus()) > 20 {
			grew = true
		}
	}
	if !grew {
		t.Error("no μCFuzz stream grew its pool")
	}
}

func TestMix64RoundTrip(t *testing.T) {
	src := &mix64{state: streamSeed(42, 3)}
	rng := rand.New(src)
	for i := 0; i < 100; i++ {
		rng.Intn(1000)
		rng.Float64()
	}
	saved := src.state
	var a [20]int
	for i := range a {
		a[i] = rng.Intn(1 << 20)
	}
	src.state = saved
	rng2 := rand.New(src)
	for i := range a {
		if got := rng2.Intn(1 << 20); got != a[i] {
			t.Fatalf("draw %d: restored stream diverged (%d != %d)", i, got, a[i])
		}
	}
}

func TestStreamSeedsDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 256; i++ {
		s := streamSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d share seed %x", prev, i, s)
		}
		seen[s] = i
	}
	if streamSeed(42, 0) == streamSeed(43, 0) {
		t.Error("different campaign seeds collide on stream 0")
	}
}
