// Package durable owns the one rule for replacing a file the system
// persists whole (checkpoint, ledger, journal repairs, triage reports,
// spec.json, -metrics-out, BENCH_sched.json): write and close a temp
// file beside it, then — checkpoint and ledger only — move the current
// file to path+PrevSuffix, then rename the temp over it. A killed
// process never leaves a half-written file under the target's name, and
// Read falls back to .prev when the decoder rejects the primary. Files
// get mode 0644 less the umask, as from os.WriteFile. Nothing is
// fsynced yet: after a power cut a rename can reach the disk before the
// data it names.
package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// PrevSuffix names the previous generation Write keeps with keepPrev.
const PrevSuffix = ".prev"

// Write atomically replaces path with data; with keepPrev the replaced
// file becomes path+PrevSuffix once data is completely written. A
// failure removes the temp file and returns every error met; path is
// unchanged unless the final rename alone failed, leaving only .prev.
func Write(path string, data []byte, keepPrev bool) (err error) {
	tmp, err := createTemp(path)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, os.Remove(tmp.Name()))
		}
	}()
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err != nil || cerr != nil {
		return errors.Join(err, cerr)
	}
	if keepPrev {
		if err := os.Rename(path, path+PrevSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return os.Rename(tmp.Name(), path)
}

// tempSeq numbers temp files: with the pid no other live writer uses
// the name, and O_EXCL skips one a killed process left behind.
var tempSeq atomic.Uint64

// createTemp is os.CreateTemp beside path, named .BASE-PID-SEQ, except
// that the umask, not a fixed 0600, decides the mode.
func createTemp(path string) (*os.File, error) {
	for {
		name := fmt.Sprintf(".%s-%d-%d", filepath.Base(path), os.Getpid(), tempSeq.Add(1))
		f, err := os.OpenFile(filepath.Join(filepath.Dir(path), name), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// Read returns the contents and name of the newest generation of path
// (path, then path+PrevSuffix) that decode accepts. Otherwise it returns
// the primary's error, or the .prev's when there is no primary; decode
// errors are prefixed with the file name, and errors.Is(err,
// fs.ErrNotExist) holds exactly when neither file exists.
func Read(path string, decode func([]byte) error) ([]byte, string, error) {
	var first error
	for _, p := range [...]string{path, path + PrevSuffix} {
		data, err := os.ReadFile(p)
		if err == nil {
			if err = decode(data); err == nil {
				return data, p, nil
			}
			err = fmt.Errorf("%s: %w", p, err)
		}
		if first == nil || errors.Is(first, fs.ErrNotExist) {
			first = err
		}
	}
	return nil, "", first
}

// Exists reports whether either generation of path is on disk.
func Exists(path string) bool {
	_, err := os.Stat(path)
	_, perr := os.Stat(path + PrevSuffix)
	return err == nil || perr == nil
}

// Remove deletes both generations of path; an absent one is not an
// error.
func Remove(path string) (err error) {
	for _, p := range [...]string{path, path + PrevSuffix} {
		if rerr := os.Remove(p); !errors.Is(rerr, fs.ErrNotExist) {
			err = errors.Join(err, rerr)
		}
	}
	return err
}
