package serve

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"os"
	"slices"

	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/obs"
)

// OpenJournal starts a fresh flight journal at path (see openJournal).
func OpenJournal(path string, maxBytes int64) (io.WriteCloser, error) {
	w, _, _, err := openJournal(path, maxBytes, nil, 0)
	return w, err
}

// openJournal is the one journal rule; Build applies it to mucfuzz
// -macro and daemon jobs alike. A fresh campaign (snap nil) starts the
// journal over: truncated, and an old rotated generation removed. A
// campaign resumed from snap (its checkpoint ckptBytes long) continues
// it: repaired to snap's barrier, with the repaired prefix returned for
// the recorder to replay, so the journal ends byte-identical to an
// uninterrupted run's. lost reports a prefix that does not start at the
// campaign header (journal missing, or its head rotated away). Either
// way the journal is opened for append, through an obs.RotatingWriter
// when maxBytes > 0.
func openJournal(path string, maxBytes int64, snap *engine.Snapshot, ckptBytes int) (w io.WriteCloser, prefix []byte, lost bool, err error) {
	if snap == nil {
		for _, e := range []error{os.Truncate(path, 0), os.Remove(path + obs.RotatedSuffix)} {
			if !errors.Is(e, fs.ErrNotExist) {
				err = errors.Join(err, e)
			}
		}
	} else if prefix, err = repairJournal(path, snap, ckptBytes); err == nil {
		head, _, _ := bytes.Cut(prefix, []byte{'\n'})
		ev, derr := flight.DecodeLine(head)
		lost = derr != nil || ev.Kind != "campaign"
	}
	if err != nil {
		return nil, nil, false, err
	}
	if maxBytes > 0 {
		w, err = obs.OpenRotating(path, maxBytes)
	} else {
		w, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	}
	return w, prefix, lost, err
}

// repairJournal repairs the journal at path in place (see repairLines)
// and returns the repaired bytes. A rotated generation beside it holds
// the journal's head: the two are repaired as one logical journal, and
// the rotated one is left alone unless the repair cuts into it — then
// what is left of the journal moves to path.
func repairJournal(path string, snap *engine.Snapshot, ckptBytes int) ([]byte, error) {
	rotated, err := os.ReadFile(path + obs.RotatedSuffix)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	current, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	out, err := repairLines(slices.Concat(rotated, current), snap, ckptBytes)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(out, rotated) {
		return out, durable.Write(path, out[len(rotated):], false)
	}
	if err := durable.Write(path, out, false); err != nil {
		return nil, err
	}
	return out, os.Remove(path + obs.RotatedSuffix)
}

// repairLines rewinds journal bytes to the barrier a resumed checkpoint
// captured, so the journal a killed-and-restarted campaign finally
// produces is byte-identical to an uninterrupted run's.
//
// The engine journals an epoch's events *before* installing that
// epoch's checkpoint and journals the checkpoint confirmation *after*,
// so a SIGKILL can leave the journal either ahead of the checkpoint
// (epochs the resumed campaign will re-execute and re-journal) or
// exactly one confirmation line behind it. Repair therefore:
//
//  1. drops any torn trailing line (no terminating newline),
//  2. drops every event from epochs after the checkpoint's,
//  3. drops a stale end event (the resumed run re-emits it),
//  4. re-appends the checkpoint confirmation for the resumed barrier
//     when the kill landed between the file install and the journal
//     write — reconstructed bit-for-bit from the snapshot on disk.
//
// Lines are read with flight's decoder and the confirmation is written
// with its encoder. Kept lines are copied verbatim: re-encoding a
// decoded line could rewrite its numbers.
//
// ckptBytes is the resumed checkpoint file's size (the confirmation
// line's payload).
func repairLines(data []byte, snap *engine.Snapshot, ckptBytes int) ([]byte, error) {
	out, sawCkpt := cutLines(data, snap.Epoch, snap.Done)
	if !sawCkpt && snap.Done > 0 {
		// Killed between checkpoint install and its journal line: the
		// confirmation the uninterrupted run would carry.
		line, err := flight.EncodeLine(flight.CheckpointEvent(snap.Epoch, snap.Done, ckptBytes))
		if err != nil {
			return nil, err
		}
		out = append(out, line...)
	}
	return out, nil
}

// cutLines is repairLines' cut (steps 1-3) for a campaign resumed at
// epoch with done steps: the kept lines, and whether they hold that
// barrier's checkpoint confirmation.
func cutLines(data []byte, epoch, done int) (out []byte, sawCkpt bool) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		ev, err := flight.DecodeLine(line)
		if err != nil {
			// A torn trailing write; everything after it is gone too
			// (the journal is append-only, so nothing valid follows a
			// torn line).
			break
		}
		if ev.Epoch > epoch {
			break
		}
		if ev.Kind == "end" {
			// The campaign will re-run its tail and re-emit completion.
			continue
		}
		if d, _ := ev.Data["done"].(float64); ev.Kind == "checkpoint" &&
			ev.Epoch == epoch && int(d) == done {
			sawCkpt = true
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return out, sawCkpt
}

// readCappedJournal returns what a capped job resumed at epoch with done
// steps replays from its journal at path: the lines cutLines keeps. The
// file is only read — a capped journal is never repaired or appended
// to, so it stays as the cap left it — and a missing one replays
// nothing.
func readCappedJournal(path string, epoch, done int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out, _ := cutLines(data, epoch, done)
	return out, nil
}
