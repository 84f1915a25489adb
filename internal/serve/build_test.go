package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/obs"
)

// TestLocalRunMatchesDaemonJob drives Build the way mucfuzz -macro
// does (own registry, ring-only recorder, checkpoint every 8 epochs)
// and requires the daemon job of the same spec to end in the same
// place: identical final checkpoint (every stream's merged stats,
// corpus, RNG and scheduler state), counters and triage bytes.
func TestLocalRunMatchesDaemonJob(t *testing.T) {
	spec := testSpec("pin", 3, 256)
	spec.StepsPerEpoch = 16
	spec.Reduce = true

	dir := t.TempDir()
	d := newTestDaemon(t, dir, 1)
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	rec := waitJobs(t, d, []string{id})[id]
	d.Stop()

	local := t.TempDir()
	c, err := Build(spec, engine.Config{
		Workers:         3,
		CheckpointPath:  filepath.Join(local, CheckpointFile),
		CheckpointEvery: 8,
		Registry:        obs.NewRegistry(),
	}, &flight.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Triage(c.Compiler, engine.TriageConfig{Reduce: spec.Reduce})
	if err := rep.WriteJSON(filepath.Join(local, TriageFile)); err != nil {
		t.Fatal(err)
	}
	agg := c.MergedStats()
	if rec.Done != c.Done() || rec.Epochs != c.Epoch() ||
		rec.Edges != agg.Coverage.Count() || rec.Crashes != len(agg.Crashes) {
		t.Errorf("daemon record %d steps/%d epochs/%d edges/%d crashes, local run %d/%d/%d/%d",
			rec.Done, rec.Epochs, rec.Edges, rec.Crashes,
			c.Done(), c.Epoch(), agg.Coverage.Count(), len(agg.Crashes))
	}
	for _, f := range []string{CheckpointFile, TriageFile} {
		want, err := os.ReadFile(filepath.Join(JobDir(dir, id), f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(local, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("local %s differs from the daemon job's", f)
		}
	}
}

// TestBuildResumeRule pins the one resume rule: the snapshot owns seed,
// streams, steps-per-epoch and scheduling policy whatever the spec
// says, a larger spec budget extends the campaign and a smaller one
// does not shrink it, and an unreadable checkpoint is an error rather
// than a silent fresh start.
func TestBuildResumeRule(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.json")
	if _, err := Build(JobSpec{Tenant: "t"}, engine.Config{CheckpointPath: ckpt}, nil); err == nil {
		t.Error("a fresh campaign without a step budget was built")
	}
	spec := testSpec("t", 5, 64)
	spec.Sched = "uniform"
	c, err := Build(spec, engine.Config{CheckpointPath: ckpt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Unlock()

	for _, tc := range []struct{ steps, want int }{{128, 128}, {32, 64}, {0, 64}} {
		other := JobSpec{Tenant: "t", Steps: tc.steps} // defaults: seed 1, 16 streams, adaptive
		r, err := Build(other, engine.Config{CheckpointPath: ckpt}, nil)
		if err != nil {
			t.Fatal(err)
		}
		cfg := r.Config()
		r.Unlock()
		if r.From != ckpt || r.Spec.Steps != tc.want || r.Spec.Streams != 2 || r.Spec.Sched != "uniform" {
			t.Errorf("steps %d: Build reports resume from %q as %+v", tc.steps, r.From, r.Spec)
		}
		if cfg.Seed != 5 || cfg.Streams != 2 || cfg.StepsPerEpoch != 8 || cfg.TotalSteps != tc.want {
			t.Errorf("steps %d: resumed as seed %d, %d streams, %d steps/epoch, budget %d; want 5, 2, 8, %d",
				tc.steps, cfg.Seed, cfg.Streams, cfg.StepsPerEpoch, cfg.TotalSteps, tc.want)
		}
		if got := r.Workers()[0].(engine.SchedWorker).SchedState().Kind; got != "uniform" {
			t.Errorf("steps %d: resumed with %s scheduling, want the snapshot's uniform", tc.steps, got)
		}
	}

	if err := os.WriteFile(ckpt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(ckpt + durable.PrevSuffix)
	if _, err := Build(spec, engine.Config{CheckpointPath: ckpt}, nil); err == nil {
		t.Error("Build started fresh over an unreadable checkpoint")
	}
}

// TestResumedJobDecodesCheckpointOnce covers the daemon's admission
// path: buildRuntime decodes a job's checkpoint once, repairs the
// journal against it and hands the snapshot to build, which must read
// no checkpoint file. With garbage on disk in place of both
// generations, build still resumes from the handed snapshot and
// finishes with the same checkpoint bytes as an uninterrupted run.
func TestResumedJobDecodesCheckpointOnce(t *testing.T) {
	spec := testSpec("t", 5, 64)
	whole := filepath.Join(t.TempDir(), "c.json")
	c, err := Build(spec, engine.Config{CheckpointPath: whole}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "c.json")
	c, err = Build(spec, engine.Config{CheckpointPath: ckpt}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSlice(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	c.Unlock()
	snap, from, err := engine.LoadWithFallback(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{ckpt, ckpt + durable.PrevSuffix} {
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := build(spec, engine.Config{CheckpointPath: ckpt}, nil, snap, from)
	if err != nil {
		t.Fatalf("build re-read the checkpoint it was handed: %v", err)
	}
	if r.Done() != snap.Done || r.From != from {
		t.Fatalf("resumed at step %d from %q, want %d from %q", r.Done(), r.From, snap.Done, from)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("the resumed campaign's final checkpoint differs from an uninterrupted run's")
	}
}
