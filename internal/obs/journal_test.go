package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
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

func TestJournalStickyErrorAndDropped(t *testing.T) {
	j := NewJournal(failingWriter{})
	for i := 0; i < 3; i++ {
		j.Event("tick", map[string]any{"i": i})
	}
	j.Flush()
	if err := j.Err(); err == nil {
		t.Fatal("write failures not surfaced by Err")
	}
	// The buffered writer absorbs small events; after Flush the failure
	// is sticky and later events count as dropped.
	j.Event("tick", map[string]any{"i": 99})
	if j.Err() == nil {
		t.Error("error cleared by a later event")
	}
	if j.Dropped() == 0 {
		t.Error("no events counted as dropped despite a dead writer")
	}
	// Unmarshalable payloads drop without poisoning the journal.
	var buf bytes.Buffer
	ok := NewJournal(&buf)
	ok.Event("bad", map[string]any{"ch": make(chan int)})
	ok.Event("good", map[string]any{"i": 1})
	if err := ok.Flush(); err != nil {
		t.Fatal(err)
	}
	if ok.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1 (the unmarshalable event)", ok.Dropped())
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"kind":"good"`)) {
		t.Errorf("good event lost: %q", buf.String())
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) {
	return 0, os.ErrClosed
}
