package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
)

const (
	jlEpoch1 = `{"epoch":1,"stream":0,"kind":"epoch","data":{"done":16}}` + "\n"
	jlCkpt1  = `{"epoch":1,"stream":-1,"kind":"checkpoint","data":{"bytes":90,"done":16}}` + "\n"
	jlEpoch2 = `{"epoch":2,"stream":0,"kind":"epoch","data":{"done":32}}` + "\n"
	jlCkpt2  = `{"epoch":2,"stream":-1,"kind":"checkpoint","data":{"bytes":111,"done":32}}` + "\n"
	jlEpoch3 = `{"epoch":3,"stream":0,"kind":"epoch","data":{"done":48}}` + "\n"
	jlEnd    = `{"epoch":3,"stream":-1,"kind":"end","data":{"crashes":1,"done":48,"edges":9}}` + "\n"
)

func writeJournal(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), JournalFile)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readJournal(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRepairDropsEpochsPastCheckpoint(t *testing.T) {
	// Killed after journaling epoch 3 but the surviving checkpoint is at
	// epoch 2: the resumed campaign re-executes epoch 3 and re-journals
	// it, so repair must drop the stale copy (and the stale end event).
	path := writeJournal(t, jlEpoch1+jlCkpt1+jlEpoch2+jlCkpt2+jlEpoch3+jlEnd)
	snap := &engine.Snapshot{Epoch: 2, Done: 32}
	if _, err := repairJournal(path, snap, 111); err != nil {
		t.Fatal(err)
	}
	want := jlEpoch1 + jlCkpt1 + jlEpoch2 + jlCkpt2
	if got := readJournal(t, path); got != want {
		t.Errorf("repaired journal:\n%qwant:\n%q", got, want)
	}
}

func TestRepairDropsTornTrailingLine(t *testing.T) {
	torn := `{"epoch":3,"stream":0,"ki`
	path := writeJournal(t, jlEpoch1+jlCkpt1+jlEpoch2+jlCkpt2+torn)
	snap := &engine.Snapshot{Epoch: 2, Done: 32}
	if _, err := repairJournal(path, snap, 111); err != nil {
		t.Fatal(err)
	}
	want := jlEpoch1 + jlCkpt1 + jlEpoch2 + jlCkpt2
	if got := readJournal(t, path); got != want {
		t.Errorf("repaired journal:\n%qwant:\n%q", got, want)
	}
}

func TestRepairReappendsMissingConfirmation(t *testing.T) {
	// Killed between the checkpoint file install and its journal
	// confirmation line: repair reconstructs the line bit-for-bit from
	// the snapshot, so the continued journal matches an uninterrupted
	// run's.
	path := writeJournal(t, jlEpoch1+jlCkpt1+jlEpoch2)
	snap := &engine.Snapshot{Epoch: 2, Done: 32}
	if _, err := repairJournal(path, snap, 111); err != nil {
		t.Fatal(err)
	}
	want := jlEpoch1 + jlCkpt1 + jlEpoch2 + jlCkpt2
	if got := readJournal(t, path); got != want {
		t.Errorf("repaired journal:\n%qwant:\n%q", got, want)
	}
}

func TestRepairFreshStartTruncatesNothing(t *testing.T) {
	// No checkpoint progress (snap.Done 0 never happens in practice —
	// the engine checkpoints only after an epoch — but repair must not
	// invent a confirmation for it).
	path := writeJournal(t, "")
	snap := &engine.Snapshot{Epoch: 0, Done: 0}
	if _, err := repairJournal(path, snap, 50); err != nil {
		t.Fatal(err)
	}
	if got := readJournal(t, path); got != "" {
		t.Errorf("repaired empty journal = %q, want empty", got)
	}
}

// FuzzRepairJournal: repair never panics on any journal bytes. What it
// keeps is a line-prefix of the input's decodable lines, end events
// left out, each from an epoch no later than the snapshot's; at most
// one line follows, the snapshot's own checkpoint confirmation. A
// repaired journal repairs to itself.
func FuzzRepairJournal(f *testing.F) {
	whole := jlEpoch1 + jlCkpt1 + jlEpoch2 + jlCkpt2 + jlEpoch3 + jlEnd
	f.Add([]byte(whole), 2, 32, 111)
	f.Add([]byte(jlEpoch1+jlCkpt1+jlEpoch2), 2, 32, 111)
	f.Add([]byte(jlEpoch1+jlCkpt1+`{"epoch":2,"stream":0,"ki`), 1, 16, 90)
	f.Add([]byte("\n\nnull\n"+jlEnd+jlEpoch1), 3, 48, 0)
	f.Add([]byte{}, 0, 0, 50)
	f.Fuzz(func(t *testing.T, data []byte, epoch, done, ckptBytes int) {
		snap := &engine.Snapshot{Epoch: epoch, Done: done}
		out, err := repairLines(data, snap, ckptBytes)
		if err != nil {
			t.Fatalf("repair failed: %v", err)
		}
		if len(out) > 0 && out[len(out)-1] != '\n' {
			t.Fatalf("repaired journal does not end in a newline: %q", out)
		}
		var kept [][]byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if ev, err := flight.DecodeLine(line); len(line) > 0 && (err != nil || ev.Kind != "end") {
				kept = append(kept, line)
			}
		}
		got := bytes.Split(bytes.TrimSuffix(out, []byte{'\n'}), []byte{'\n'})
		if len(out) == 0 {
			got = nil
		}
		if !isLinePrefix(got, kept, snap) {
			confirm, err := flight.EncodeLine(flight.CheckpointEvent(epoch, done, ckptBytes))
			if err != nil {
				t.Fatal(err)
			}
			last := len(got) - 1
			if last < 0 || string(got[last])+"\n" != string(confirm) || !isLinePrefix(got[:last], kept, snap) {
				t.Fatalf("repair of %q at epoch %d, done %d kept more than a valid line-prefix plus the confirmation:\n%q",
					data, epoch, done, out)
			}
		}
		again, err := repairLines(out, snap, ckptBytes)
		if err != nil || !bytes.Equal(again, out) {
			t.Fatalf("repair is not idempotent: %q, then %q (%v)", out, again, err)
		}
	})
}

// isLinePrefix reports whether got is a prefix of want made of lines
// that decode to events from epochs no later than snap's.
func isLinePrefix(got, want [][]byte, snap *engine.Snapshot) bool {
	if len(got) > len(want) {
		return false
	}
	for i, line := range got {
		ev, err := flight.DecodeLine(line)
		if err != nil || ev.Epoch > snap.Epoch || !bytes.Equal(line, want[i]) {
			return false
		}
	}
	return true
}
