package engine

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// TestCheckpointResumeEqualsUninterrupted is the checkpoint contract:
// kill a campaign mid-flight, resume it from the snapshot, and the
// final merged state is identical to a run that was never interrupted.
func TestCheckpointResumeEqualsUninterrupted(t *testing.T) {
	pool := seeds.Generate(12, 5)
	cfg := Config{Streams: 6, Workers: 3, StepsPerEpoch: 12,
		TotalSteps: 1200, Seed: 99}

	// Reference: one uninterrupted run.
	ref := New(cfg, macroFactory(compilersim.New("gcc", 14), pool))
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	// Interrupted: cancel at the third barrier; the engine finishes the
	// in-flight epoch, snapshots, and returns ErrInterrupted.
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
	ic := New(icfg, macroFactory(compilersim.New("gcc", 14), pool))
	err := ic.Run(ctx)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if ic.Done() >= cfg.TotalSteps || ic.Done() == 0 {
		t.Fatalf("interrupted at done=%d, want mid-campaign", ic.Done())
	}

	// Resume from the snapshot and finish.
	rc, err := Resume(ckpt, Config{Workers: 5},
		macroFactory(compilersim.New("gcc", 14), pool))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Done() != ic.Done() || rc.Epoch() != ic.Epoch() {
		t.Fatalf("resumed at done=%d epoch=%d, checkpoint had done=%d epoch=%d",
			rc.Done(), rc.Epoch(), ic.Done(), ic.Epoch())
	}
	if err := rc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rc); got != want {
		t.Errorf("interrupt+resume diverged from uninterrupted run:\n got %s\nwant %s",
			got, want)
	}
}

// TestResumeExtendsBudget: a completed campaign's final snapshot can be
// resumed with a larger TotalSteps and keeps fuzzing.
func TestResumeExtendsBudget(t *testing.T) {
	pool := seeds.Generate(10, 5)
	ckpt := filepath.Join(t.TempDir(), "c.json")
	cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 10,
		TotalSteps: 200, Seed: 3, CheckpointPath: ckpt}
	c := New(cfg, macroFactory(compilersim.New("gcc", 14), pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rc, err := Resume(ckpt, Config{TotalSteps: 400},
		macroFactory(compilersim.New("gcc", 14), pool))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Done() != 200 {
		t.Fatalf("resumed done = %d, want 200", rc.Done())
	}
	if err := rc.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rc.Done() != 400 {
		t.Errorf("extended run done = %d, want 400", rc.Done())
	}
	// The extension must equal a straight 400-step run.
	full := New(Config{Streams: 4, Workers: 2, StepsPerEpoch: 10,
		TotalSteps: 400, Seed: 3},
		macroFactory(compilersim.New("gcc", 14), pool))
	if err := full.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fingerprint(rc) != fingerprint(full) {
		t.Error("extended campaign diverged from straight 400-step run")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	pool := seeds.Generate(10, 5)
	reg := obs.NewRegistry()
	ckpt := filepath.Join(t.TempDir(), "c.json")
	cfg := Config{Streams: 3, Workers: 3, StepsPerEpoch: 15,
		TotalSteps: 300, Seed: 21, CheckpointPath: ckpt, Registry: reg}
	c := New(cfg, mucFactory(compilersim.New("gcc", 14), pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap, err := Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != SnapshotVersion || snap.Done != 300 || snap.Seed != 21 {
		t.Errorf("snapshot fields off: %+v", snap)
	}
	if len(snap.StreamStates) != 3 {
		t.Fatalf("stream states = %d, want 3", len(snap.StreamStates))
	}
	for i, ss := range snap.StreamStates {
		if len(ss.Corpus) == 0 {
			t.Errorf("stream %d: empty corpus", i)
		}
		if ss.Stats.Ticks == 0 {
			t.Errorf("stream %d: no ticks recorded", i)
		}
	}
	// Coverage must round-trip exactly.
	m, err := decodeCoverage(snap.Coverage)
	if err != nil {
		t.Fatal(err)
	}
	g := c.CoverageSnapshot()
	if m.HasNew(g) || g.HasNew(m) {
		t.Error("global coverage did not round-trip")
	}
	if n := reg.Snapshot().Counter("engine_checkpoints_total"); n == 0 {
		t.Error("engine_checkpoints_total never incremented")
	}
	if b := reg.Gauge("engine_checkpoint_bytes").With().Value(); b == 0 {
		t.Error("engine_checkpoint_bytes not set")
	}
}

func TestResumeRejectsContradictions(t *testing.T) {
	pool := seeds.Generate(5, 5)
	ckpt := filepath.Join(t.TempDir(), "c.json")
	cfg := Config{Streams: 2, StepsPerEpoch: 5, TotalSteps: 20, Seed: 8,
		CheckpointPath: ckpt}
	c := New(cfg, macroFactory(compilersim.New("gcc", 14), pool))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	fac := macroFactory(compilersim.New("gcc", 14), pool)
	for _, bad := range []Config{
		{Seed: 9},
		{Streams: 4},
		{StepsPerEpoch: 7},
	} {
		if _, err := Resume(ckpt, bad, fac); err == nil {
			t.Errorf("Resume accepted contradicting config %+v", bad)
		}
	}
}

// TestResumeFromCorruptCheckpoint: a torn or tampered latest generation
// must not lose the campaign — Resume falls back to the rotated .prev
// and the finished run still equals an uninterrupted one (it merely
// re-fuzzes the last interval deterministically).
func TestResumeFromCorruptCheckpoint(t *testing.T) {
	pool := seeds.Generate(12, 5)
	cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 10,
		TotalSteps: 400, Seed: 17}

	ref := New(cfg, macroFactory(compilersim.New("gcc", 14), pool))
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := fingerprint(ref)

	for name, corrupt := range map[string]func(path string){
		"torn-write": func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(path, data[:len(data)/3], 0o644)
		},
		"tampered-contents": func(path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Valid JSON, wrong contents: claim more progress than the
			// checksum was computed over.
			data = bytes.Replace(data, []byte(`"done":`), []byte(`"done":9`), 1)
			os.WriteFile(path, data, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			ckpt := filepath.Join(t.TempDir(), "campaign.json")
			icfg := cfg
			icfg.CheckpointPath = ckpt
			ctx, cancel := context.WithCancel(context.Background())
			epochs := 0
			icfg.OnEpoch = func(done, total int) {
				if epochs++; epochs == 4 {
					cancel()
				}
			}
			ic := New(icfg, macroFactory(compilersim.New("gcc", 14), pool))
			if err := ic.Run(ctx); !errors.Is(err, ErrInterrupted) {
				t.Fatalf("interrupted run returned %v", err)
			}
			if _, err := os.Stat(ckpt + durable.PrevSuffix); err != nil {
				t.Fatalf("no rotated generation: %v", err)
			}
			corrupt(ckpt)
			if _, err := Load(ckpt); !errors.Is(err, ErrCorrupt) && name == "tampered-contents" {
				t.Fatalf("Load(tampered) = %v, want ErrCorrupt", err)
			}

			reg := obs.NewRegistry()
			rc, err := Resume(ckpt, Config{Registry: reg},
				macroFactory(compilersim.New("gcc", 14), pool))
			if err != nil {
				t.Fatalf("Resume did not fall back to .prev: %v", err)
			}
			if rc.Done() >= ic.Done() {
				t.Fatalf("fallback resumed at done=%d, want an earlier generation than %d",
					rc.Done(), ic.Done())
			}
			if n := reg.Snapshot().Counter("engine_checkpoint_fallbacks_total"); n != 1 {
				t.Errorf("engine_checkpoint_fallbacks_total = %d, want 1", n)
			}
			if err := rc.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(rc); got != want {
				t.Errorf("corrupt-fallback run diverged:\n got %s\nwant %s", got, want)
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("Load invented a snapshot from a missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := Load(bad); err == nil {
		t.Error("Load accepted malformed JSON")
	}
	wrongVer := filepath.Join(dir, "ver.json")
	os.WriteFile(wrongVer, []byte(`{"version":99,"streams":1,"stream_states":[{}]}`), 0o644)
	if _, err := Load(wrongVer); err == nil {
		t.Error("Load accepted a future snapshot version")
	}
}
