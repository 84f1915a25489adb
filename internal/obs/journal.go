package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

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

// OpenRotating opens a size-capped writer appending to path; bytes
// already there count toward the cap. It never truncates: whether a
// journal starts over is its owner's call. maxBytes 0 disables
// rotation. A missing parent directory is a clear error here, not a
// silent failure at first write.
func OpenRotating(path string, maxBytes int64) (*RotatingWriter, error) {
	dir := filepath.Dir(path)
	if fi, err := os.Stat(dir); err != nil {
		return nil, fmt.Errorf("obs: journal directory %q does not exist: %w", dir, err)
	} else if !fi.IsDir() {
		return nil, fmt.Errorf("obs: journal parent %q is not a directory", dir)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: open journal %q: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: open journal %q: %w", path, err)
	}
	return &RotatingWriter{path: path, max: maxBytes, f: f, n: fi.Size()}, nil
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
