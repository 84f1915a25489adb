package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestOpenRotatingMissingParentDir(t *testing.T) {
	_, err := OpenRotating(filepath.Join(t.TempDir(), "nope", "j.jsonl"), 0)
	if err == nil || !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("missing parent error = %v, want clear does-not-exist message", err)
	}
	file := filepath.Join(t.TempDir(), "plainfile")
	if werr := os.WriteFile(file, []byte("x"), 0o644); werr != nil {
		t.Fatal(werr)
	}
	_, err = OpenRotating(filepath.Join(file, "j.jsonl"), 0)
	if err == nil {
		t.Error("file-as-parent accepted, want error")
	}
}

func TestRotatingWriterRotatesAtCap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	w, err := OpenRotating(path, 25)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	w.OnRotate = func() { fired++ }

	rec := []byte("0123456789\n") // 11 bytes; 3rd write exceeds the 25-byte cap
	for i := 0; i < 3; i++ {
		if _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 1 {
		t.Fatalf("OnRotate fired %d times, want 1", fired)
	}
	if got := w.Size(); got != int64(len(rec)) {
		t.Errorf("current generation holds %d bytes, want %d", got, len(rec))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	old, err := os.ReadFile(path + RotatedSuffix)
	if err != nil {
		t.Fatalf("rotated generation missing: %v", err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat(rec, 2); !bytes.Equal(old, want) {
		t.Errorf("rotated file = %q, want two records", old)
	}
	if !bytes.Equal(cur, rec) {
		t.Errorf("current file = %q, want one record", cur)
	}
}

func TestRotatingWriterOversizeRecordLandsWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := OpenRotating(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	big := []byte("this-record-is-larger-than-the-cap\n")
	if _, err := w.Write([]byte("ab\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(big); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cur, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, big) {
		t.Errorf("oversize record torn or lost: current file = %q", cur)
	}
}

func TestRotatingWriterReplacesPreviousRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := OpenRotating(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	rotations := 0
	w.OnRotate = func() { rotations++ }
	for _, rec := range []string{"aa\n", "bb\n", "cc\n"} { // two rotations
		if _, err := w.Write([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if rotations != 2 {
		t.Fatalf("rotations = %d, want 2", rotations)
	}
	w.Close()
	old, err := os.ReadFile(path + RotatedSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if string(old) != "bb\n" {
		t.Errorf("kept rotation = %q, want the most recent generation bb", old)
	}
	if _, err := os.Stat(path + ".2"); err == nil {
		t.Error("more than one rotated generation kept on disk")
	}
}

func TestRotatingWriterConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	w, err := OpenRotating(path, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < 8; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w.Write([]byte(fmt.Sprintf("{\"w\":%d,\"i\":%d}\n", id, i)))
			}
		}(id)
	}
	wg.Wait()
	size := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Concurrent writers and rotation never tear or interleave a
	// record: every line of both generations is one whole JSON object.
	for _, p := range []string{path + RotatedSuffix, path} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if p == path && int64(len(data)) != size {
			t.Errorf("Size() = %d, current generation holds %d bytes", size, len(data))
		}
		for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
			if !json.Valid([]byte(line)) {
				t.Fatalf("%s: torn or interleaved line %q", p, line)
			}
		}
	}
}

// TestOpenRotatingAppends: reopening a journal continues it, and the
// bytes already there count toward the cap, so a reopened writer
// rotates where one that never closed would have.
func TestOpenRotatingAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	if err := os.WriteFile(path, []byte("0123456789\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := OpenRotating(path, 25)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Size(); got != 11 {
		t.Fatalf("reopened Size() = %d, want the 11 bytes on disk", got)
	}
	for i := 0; i < 2; i++ { // the second write crosses the cap
		if _, err := w.Write([]byte("abcdefghij\n")); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path + RotatedSuffix)
	if err != nil {
		t.Fatalf("no rotation after the reopened file crossed the cap: %v", err)
	}
	if want := "0123456789\nabcdefghij\n"; string(old) != want {
		t.Errorf("rotated generation = %q, want %q", old, want)
	}
}
