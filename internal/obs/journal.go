package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Journal appends structured events as JSON lines (one object per
// line). Spans write their completions here; instrumented code may add
// its own events. Safe for concurrent use; a nil *Journal no-ops.
//
// Write failures are sticky: the first error is recorded and surfaced
// by Err, Flush, and Close instead of being silently dropped, so a
// full disk or a vanished directory is diagnosable after the fact.
type Journal struct {
	mu      sync.Mutex
	w       *bufio.Writer
	c       io.Closer
	start   time.Time
	err     error // first write/flush error, sticky
	dropped int64 // events lost to marshal or write errors
}

// NewJournal wraps an arbitrary writer (the caller keeps ownership of
// closing it unless it is also an io.Closer handed to OpenJournal).
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: bufio.NewWriter(w), start: time.Now()}
}

// OpenJournal creates (truncating) a JSONL journal file. A missing
// parent directory is reported as a clear error up front rather than
// surfacing later as dropped events.
func OpenJournal(path string) (*Journal, error) {
	return OpenJournalCapped(path, 0)
}

// OpenJournalCapped creates a JSONL journal file whose size is capped
// at maxBytes: when an append would exceed the cap, the current file is
// fsynced, closed, and renamed to path+".1" (replacing any previous
// rotation), and writing continues in a fresh file at path. maxBytes 0
// disables rotation.
func OpenJournalCapped(path string, maxBytes int64) (*Journal, error) {
	rw, err := OpenRotating(path, maxBytes)
	if err != nil {
		return nil, err
	}
	j := NewJournal(rw)
	j.c = rw
	return j, nil
}

// Event appends one line carrying the event kind, a millisecond offset
// from journal creation, and the given fields. Reserved field names
// "kind" and "t_ms" are overwritten. encoding/json sorts map keys, so
// lines are deterministic for a given payload.
func (j *Journal) Event(kind string, fields map[string]any) {
	if j == nil {
		return
	}
	rec := make(map[string]any, len(fields)+2)
	for k, v := range fields {
		rec[k] = v
	}
	rec["kind"] = kind
	rec["t_ms"] = time.Since(j.start).Milliseconds()
	line, err := json.Marshal(rec)
	if err != nil {
		j.mu.Lock()
		j.dropped++
		j.mu.Unlock()
		return // unmarshalable attachment: drop the event, never crash
	}
	j.mu.Lock()
	_, werr := j.w.Write(line)
	if werr == nil {
		werr = j.w.WriteByte('\n')
	}
	if werr != nil {
		j.dropped++
		if j.err == nil {
			j.err = werr
		}
	}
	j.mu.Unlock()
}

// Err returns the first write error the journal has seen (nil when
// every event landed). Dropped returns how many events were lost to
// marshal or write failures.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Dropped returns the number of events lost to marshal/write errors.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Flush forces buffered lines out. It returns the journal's sticky
// error if one occurred earlier.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	ferr := j.w.Flush()
	if j.err == nil {
		j.err = ferr
	}
	return j.err
}

// Close flushes and closes the underlying file (if OpenJournal created
// one).
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	err := j.Flush()
	if j.c != nil {
		if cerr := j.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// RotatingWriter is a size-capped file writer: when an append would
// push the current file past MaxBytes, the file is fsynced, closed,
// and renamed to path+".1" (replacing any previous rotation), and a
// fresh file is created at path. Rotation happens only between Write
// calls, so writers that emit one record per call never see a record
// torn across generations. Safe for concurrent use.
type RotatingWriter struct {
	// OnRotate, when set, is called (outside the lock) after each
	// completed rotation — e.g. to bump a rotation counter metric.
	OnRotate func()

	mu   sync.Mutex
	path string
	max  int64
	f    *os.File
	n    int64 // bytes written to the current generation
}

// RotatedSuffix names the single rotated generation kept on disk.
const RotatedSuffix = ".1"

// OpenRotating creates (truncating) a size-capped writer at path.
// maxBytes 0 disables rotation. A missing parent directory is a clear
// error here, not a silent failure at first write.
func OpenRotating(path string, maxBytes int64) (*RotatingWriter, error) {
	dir := filepath.Dir(path)
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("obs: journal directory %q does not exist: %w", dir, err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("obs: journal parent %q is not a directory", dir)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("obs: create journal %q: %w", path, err)
	}
	return &RotatingWriter{path: path, max: maxBytes, f: f}, nil
}

// Write appends p, rotating first when the current generation is
// non-empty and p would push it past the cap. A single record larger
// than the cap still lands whole (in its own generation).
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	rotated := false
	if w.max > 0 && w.n > 0 && w.n+int64(len(p)) > w.max {
		if err := w.rotate(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
		rotated = true
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	cb := w.OnRotate
	w.mu.Unlock()
	if rotated && cb != nil {
		cb()
	}
	return n, err
}

// rotate fsyncs and closes the current generation, renames it to
// path+RotatedSuffix, and opens a fresh file. Callers hold w.mu.
func (w *RotatingWriter) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("obs: fsync before rotation: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("obs: close before rotation: %w", err)
	}
	if err := os.Rename(w.path, w.path+RotatedSuffix); err != nil {
		return fmt.Errorf("obs: rotate journal: %w", err)
	}
	f, err := os.Create(w.path)
	if err != nil {
		return fmt.Errorf("obs: reopen journal after rotation: %w", err)
	}
	w.f = f
	w.n = 0
	return nil
}

// Size returns the byte count of the current generation.
func (w *RotatingWriter) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Close fsyncs and closes the current generation.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}
