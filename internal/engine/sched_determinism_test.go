package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// adaptiveMacroFactory builds macro streams running the bandit
// scheduler instead of the uniform default.
func adaptiveMacroFactory(comp *compilersim.Compiler, pool []string) Factory {
	return func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) Worker {
		w := fuzz.NewMacroFuzzer(fmt.Sprintf("s%d", stream), comp, muast.All(),
			pool, rng, cov, fuzz.DefaultMacroConfig())
		w.Sched = sched.NewAdaptive(len(muast.All()), sched.DefaultConfig())
		return w
	}
}

// adaptiveMucFactory builds self-guided adaptive μCFuzz streams.
func adaptiveMucFactory(comp *compilersim.Compiler, pool []string) Factory {
	return func(stream int, rng *rand.Rand, _ fuzz.CoverageSink) Worker {
		w := fuzz.NewMuCFuzz(fmt.Sprintf("u%d", stream), comp, muast.All(), pool, rng)
		w.Sched = sched.NewAdaptive(len(muast.All()), sched.DefaultConfig())
		return w
	}
}

// TestAdaptiveSchedDeterministicAcrossWorkerCounts extends the engine's
// core contract to the bandit scheduler: per-stream posteriors fed only
// by the stream RNG must yield byte-identical merged results at any
// worker count.
func TestAdaptiveSchedDeterministicAcrossWorkerCounts(t *testing.T) {
	pool := seeds.Generate(15, 9)
	runAt := func(workers int) string {
		comp := compilersim.New("gcc", 14)
		cfg := Config{Streams: 8, Workers: workers, StepsPerEpoch: 16,
			TotalSteps: 2000, Seed: 1234}
		c := New(cfg, adaptiveMacroFactory(comp, pool))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return fingerprint(c)
	}
	base := runAt(1)
	if base == "" {
		t.Fatal("empty fingerprint")
	}
	for _, w := range []int{4, 16} {
		if got := runAt(w); got != base {
			t.Errorf("workers=%d diverged from workers=1:\n got %s\nwant %s",
				w, got, base)
		}
	}
}

// TestAdaptiveSchedChangesTheCampaign guards the test above against
// passing vacuously: the bandit must actually alter the schedule
// relative to the uniform policy at the same seed.
func TestAdaptiveSchedChangesTheCampaign(t *testing.T) {
	pool := seeds.Generate(15, 9)
	run := func(factory func(*compilersim.Compiler, []string) Factory) string {
		comp := compilersim.New("gcc", 14)
		cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 16,
			TotalSteps: 1200, Seed: 1234}
		c := New(cfg, factory(comp, pool))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return fingerprint(c)
	}
	if run(macroFactory) == run(adaptiveMacroFactory) {
		t.Error("adaptive scheduling indistinguishable from uniform — bandit may be dead code")
	}
}

// TestAdaptiveSchedCheckpointResumeEqualsUninterrupted proves the
// posterior rides the checkpoint: kill an adaptive campaign mid-flight,
// resume it, and the final state matches an uninterrupted run. Uses
// self-guided μCFuzz streams so both fuzzer kinds' SchedState paths are
// covered across the two determinism tests.
func TestAdaptiveSchedCheckpointResumeEqualsUninterrupted(t *testing.T) {
	pool := seeds.Generate(12, 5)
	cfg := Config{Streams: 6, Workers: 3, StepsPerEpoch: 12,
		TotalSteps: 900, Seed: 99}

	ref := New(cfg, adaptiveMucFactory(compilersim.New("gcc", 14), pool))
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	icfg := cfg
	icfg.CheckpointPath = ckpt
	ctx, cancel := context.WithCancel(context.Background())
	epochs := 0
	icfg.OnEpoch = func(done, total int) {
		if epochs++; epochs == 3 {
			cancel()
		}
	}
	ic := New(icfg, adaptiveMucFactory(compilersim.New("gcc", 14), pool))
	if err := ic.Run(ctx); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}

	// The snapshot must carry a non-trivial adaptive posterior.
	snap, err := Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for i, ss := range snap.StreamStates {
		if ss.Sched == nil || ss.Sched.Kind != "adaptive" {
			t.Fatalf("stream %d snapshot has no adaptive scheduler state: %+v", i, ss.Sched)
		}
		if ss.Sched.Ticks == 0 {
			t.Fatalf("stream %d posterior is empty mid-campaign", i)
		}
	}

	rc, err := Resume(ckpt, Config{Workers: 5},
		adaptiveMucFactory(compilersim.New("gcc", 14), pool))
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rc); got != want {
		t.Errorf("interrupt+resume diverged from uninterrupted adaptive run:\n got %s\nwant %s",
			got, want)
	}
}

// TestResumeRejectsSchedPolicyMismatch pins the contradiction check: a
// checkpoint written by an adaptive campaign cannot be resumed with
// uniform workers (the posterior would be silently dropped).
func TestResumeRejectsSchedPolicyMismatch(t *testing.T) {
	pool := seeds.Generate(10, 3)
	ckpt := filepath.Join(t.TempDir(), "campaign.json")
	cfg := Config{Streams: 2, Workers: 1, StepsPerEpoch: 8,
		TotalSteps: 64, Seed: 5, CheckpointPath: ckpt, CheckpointEvery: 1}
	c := New(cfg, adaptiveMucFactory(compilersim.New("gcc", 14), pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_, err := Resume(ckpt, Config{TotalSteps: 128},
		mucFactory(compilersim.New("gcc", 14), pool))
	if err == nil {
		t.Fatal("uniform workers resumed an adaptive checkpoint")
	}
}

// TestStreamRNGIsSoleRandomnessSource pins the reproducibility property
// behind -sched uniform under the engine: fuzzer scheduling must never
// read the global math/rand state, so perturbing it between runs cannot
// change the outcome.
func TestStreamRNGIsSoleRandomnessSource(t *testing.T) {
	pool := seeds.Generate(10, 3)
	run := func(perturb int) string {
		for i := 0; i < perturb; i++ {
			rand.Int() // advance the global source between campaigns
		}
		comp := compilersim.New("gcc", 14)
		cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 10,
			TotalSteps: 400, Seed: 21}
		c := New(cfg, mucFactory(comp, pool))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return fingerprint(c)
	}
	if run(0) != run(997) {
		t.Error("campaign outcome depends on global math/rand state")
	}
}
