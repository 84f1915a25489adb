package serve

import (
	"bytes"
	"os"

	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
)

// repairJournal rewinds a job's flight journal to the barrier its
// resumed checkpoint captured, so the journal a killed-and-restarted
// job finally produces is byte-identical to an uninterrupted run's.
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
// line's payload). Returns the repaired journal bytes — the prefix the
// resumed recorder must replay to restore its watchdog memory.
func repairJournal(path string, snap *engine.Snapshot, ckptBytes int) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}

	var out bytes.Buffer
	sawCkpt := false
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
		if ev.Epoch > snap.Epoch {
			break
		}
		if ev.Kind == "end" {
			// The job will re-run its tail and re-emit completion.
			continue
		}
		if done, _ := ev.Data["done"].(float64); ev.Kind == "checkpoint" &&
			ev.Epoch == snap.Epoch && int(done) == snap.Done {
			sawCkpt = true
		}
		out.Write(line)
		out.WriteByte('\n')
	}
	if !sawCkpt && snap.Done > 0 {
		// Killed between checkpoint install and its journal line: the
		// confirmation the uninterrupted run would carry.
		line, err := flight.EncodeLine(flight.CheckpointEvent(snap.Epoch, snap.Done, ckptBytes))
		if err != nil {
			return nil, err
		}
		out.Write(line)
	}
	return out.Bytes(), durable.Write(path, out.Bytes(), false)
}

// appendEndEvent writes the terminal end line for a job that was
// killed after its final checkpoint but before (or during) journaling
// completion — the one event repair cannot re-derive from epochs,
// reconstructed from the finished campaign's merged stats.
func appendEndEvent(path string, epoch, done, edges, crashes int) error {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	line, err := flight.EncodeLine(flight.EndEvent(epoch, done, edges, crashes))
	if err != nil {
		return err
	}
	return durable.Write(path, append(data, line...), false)
}
