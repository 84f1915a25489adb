package engine

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// smallCheckpoint runs a 2-stream, 32-step campaign that checkpoints
// every epoch and returns the checkpoint's path; its .prev generation
// (the epoch before the last) sits beside it.
func smallCheckpoint(tb testing.TB) string {
	tb.Helper()
	ckpt := filepath.Join(tb.TempDir(), "campaign.json")
	cfg := Config{Streams: 2, Workers: 1, StepsPerEpoch: 8, TotalSteps: 32,
		Seed: 7, CheckpointPath: ckpt}
	c := New(cfg, macroFactory(compilersim.New("gcc", 14), seeds.Generate(6, 7)))
	if err := c.Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return ckpt
}

// TestLoadWithFallbackEveryTruncation cuts a real checkpoint at every
// byte offset. The decoder must reject every cut, never panic and never
// return a snapshot decoded from torn bytes: that is the only step of
// LoadWithFallback whose input depends on where the cut falls, since
// durable.Read then reads the .prev generation the same way whatever
// the cut. Under the race detector only every 37th cut is decoded.
// LoadWithFallback itself runs on every 64th cut and the last, with the
// good .prev beside the torn primary, and must return that .prev
// generation. (Running it on all ~42,000 cuts re-decodes the 42 KB
// .prev each time: about 40 s on a 2-core host, against 4 s here.)
func TestLoadWithFallbackEveryTruncation(t *testing.T) {
	ckpt := smallCheckpoint(t)
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Load(ckpt + durable.PrevSuffix)
	if err != nil {
		t.Fatal(err)
	}
	stride := 1
	if raceEnabled {
		stride = 37
	}
	for cut := 0; cut < len(data); cut += stride {
		if snap, err := DecodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("cut at %d/%d decoded (done %d)", cut, len(data), snap.Done)
		}
	}
	fallback := func(cut int) {
		t.Helper()
		if err := os.WriteFile(ckpt, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, from, err := LoadWithFallback(ckpt)
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
		}
		if from != ckpt+durable.PrevSuffix || snap.Checksum != want.Checksum {
			t.Fatalf("cut at %d/%d: loaded %s (done %d), want the .prev generation (done %d)",
				cut, len(data), from, snap.Done, want.Done)
		}
	}
	for cut := 0; cut < len(data); cut += 64 {
		fallback(cut)
	}
	fallback(len(data) - 1)
}

// FuzzCheckpointLoad: checkpoint decoding returns a snapshot or an
// error for any input, never a panic.
func FuzzCheckpointLoad(f *testing.F) {
	data, err := os.ReadFile(smallCheckpoint(f))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if (snap == nil) == (err == nil) {
			t.Fatalf("DecodeSnapshot = %v, %v: want exactly one of a snapshot or an error", snap, err)
		}
	})
}
