package durable

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
)

func mustRead(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// names lists dir's entries, sorted.
func names(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// withFileSizeLimit runs fn with RLIMIT_FSIZE lowered to limit bytes, so
// a write past it fails with EFBIG (the Go runtime ignores SIGXFSZ) —
// a stand-in for a full disk that affects only this process.
func withFileSizeLimit(t *testing.T, limit uint64, fn func()) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = limit
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// TestWriteRotatesOnlyAfterCompleteTempWrite: keepPrev moves the old
// file to .prev on a successful write, and a write that fails part-way
// through the temp file leaves both generations as they were.
func TestWriteRotatesOnlyAfterCompleteTempWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := Write(path, []byte("v1"), true); err != nil {
		t.Fatal(err)
	}
	if Exists(path+PrevSuffix) || mustRead(t, path) != "v1" {
		t.Fatalf("first write: want v1 and no .prev, have %v", names(t, dir))
	}
	if err := Write(path, []byte("v2"), true); err != nil {
		t.Fatal(err)
	}
	if got, prev := mustRead(t, path), mustRead(t, path+PrevSuffix); got != "v2" || prev != "v1" {
		t.Fatalf("second write: primary %q .prev %q, want v2 and v1", got, prev)
	}

	var err error
	withFileSizeLimit(t, 4, func() {
		err = Write(path, []byte("v3 is longer than the limit"), true)
	})
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("write past RLIMIT_FSIZE: err = %v, want EFBIG", err)
	}
	if got, prev := mustRead(t, path), mustRead(t, path+PrevSuffix); got != "v2" || prev != "v1" {
		t.Errorf("failed write moved generations: primary %q .prev %q, want v2 and v1", got, prev)
	}
	if want := []string{"state.json", "state.json.prev"}; !slices.Equal(names(t, dir), want) {
		t.Errorf("dir = %v, want %v", names(t, dir), want)
	}
}

// TestWriteLeavesNoTempOnFailure drives every failure point of Write
// and requires the directory to hold exactly what it held before.
func TestWriteLeavesNoTempOnFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keepPrev bool
		// setup prepares dir and returns the target path.
		setup func(t *testing.T, dir string) string
		// limit, when non-zero, caps the temp file's size.
		limit uint64
	}{
		{"missing-directory", true, func(t *testing.T, dir string) string {
			return filepath.Join(dir, "gone", "state.json")
		}, 0},
		{"temp-write", true, func(t *testing.T, dir string) string {
			return seed(t, dir, "state.json")
		}, 4},
		{"rotation", true, func(t *testing.T, dir string) string {
			path := seed(t, dir, "state.json")
			blockWithDir(t, path+PrevSuffix)
			return path
		}, 0},
		{"final-rename", false, func(t *testing.T, dir string) string {
			path := filepath.Join(dir, "state.json")
			blockWithDir(t, path)
			return path
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.setup(t, dir)
			before := names(t, dir)
			var err error
			write := func() { err = Write(path, []byte("new contents"), tc.keepPrev) }
			if tc.limit > 0 {
				withFileSizeLimit(t, tc.limit, write)
			} else {
				write()
			}
			if err == nil {
				t.Fatal("Write succeeded, want an error")
			}
			if after := names(t, dir); !slices.Equal(after, before) {
				t.Errorf("dir after failed Write = %v, want %v", after, before)
			}
			if data, rerr := os.ReadFile(path); rerr == nil && string(data) != "old" {
				t.Errorf("primary = %q, want it untouched", data)
			}
		})
	}
}

// seed writes "old" to dir/name and returns its path.
func seed(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// blockWithDir puts a non-empty directory at path, which no rename of
// a file can replace.
func blockWithDir(t *testing.T, path string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestWriteMode: an installed file gets mode 0644 less the umask, as
// from os.WriteFile, with or without a .prev generation.
func TestWriteMode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	for _, tc := range []struct {
		umask int
		want  fs.FileMode
	}{{0o022, 0o644}, {0o077, 0o600}} {
		old := syscall.Umask(tc.umask)
		for _, keepPrev := range []bool{false, true} {
			if err := Write(path, []byte("x"), keepPrev); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Mode().Perm() != tc.want {
				t.Errorf("umask %03o, keepPrev=%v: mode %v, want %v",
					tc.umask, keepPrev, fi.Mode().Perm(), tc.want)
			}
		}
		syscall.Umask(old)
	}
}

// TestWriteSkipsStaleTemp: a temp file a killed process left under the
// next name is neither reused nor removed.
func TestWriteSkipsStaleTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	stale := fmt.Sprintf(".state.json-%d-%d", os.Getpid(), tempSeq.Load()+1)
	seed(t, dir, stale)
	if err := Write(path, []byte("new"), false); err != nil {
		t.Fatal(err)
	}
	if got := mustRead(t, path); got != "new" {
		t.Errorf("primary = %q, want new", got)
	}
	if got := mustRead(t, filepath.Join(dir, stale)); got != "old" {
		t.Errorf("stale temp = %q, want it untouched", got)
	}
}

// TestWriteConcurrent: concurrent writers to one path each get their
// own temp file; the target ends up holding one writer's whole data.
func TestWriteConcurrent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Write(path, []byte(strings.Repeat(strconv.Itoa(i), 4096)), false)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	got := mustRead(t, path)
	if len(got) != 4096 || strings.Count(got, got[:1]) != 4096 {
		t.Errorf("target holds a mix of writes: %d bytes starting %q", len(got), got[:1])
	}
	if want := []string{"state.json"}; !slices.Equal(names(t, dir), want) {
		t.Errorf("dir = %v, want %v", names(t, dir), want)
	}
}

var errReject = errors.New("rejected")

// acceptOnly returns a decoder that accepts exactly want.
func acceptOnly(want string) func([]byte) error {
	return func(data []byte) error {
		if string(data) != want {
			return errReject
		}
		return nil
	}
}

func TestRead(t *testing.T) {
	for _, tc := range []struct {
		name          string
		primary, prev string // "" means the file is absent
		accept        string
		wantData      string
		wantPrev      bool   // the accepted generation is .prev
		wantErr       error  // matched with errors.Is
		wantErrPrefix string // generation named by a decode error
	}{
		{name: "neither", accept: "a", wantErr: fs.ErrNotExist},
		{name: "primary", primary: "a", prev: "b", accept: "a", wantData: "a"},
		{name: "primary-rejected", primary: "torn", prev: "b", accept: "b",
			wantData: "b", wantPrev: true},
		{name: "primary-missing", prev: "b", accept: "b", wantData: "b", wantPrev: true},
		{name: "both-rejected", primary: "x", prev: "y", accept: "z",
			wantErr: errReject, wantErrPrefix: "state.json:"},
		{name: "prev-only-rejected", prev: "y", accept: "z",
			wantErr: errReject, wantErrPrefix: "state.json.prev:"},
		{name: "primary-rejected-no-prev", primary: "x", accept: "z",
			wantErr: errReject, wantErrPrefix: "state.json:"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			for p, content := range map[string]string{path: tc.primary, path + PrevSuffix: tc.prev} {
				if content != "" {
					if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			data, from, err := Read(path, acceptOnly(tc.accept))
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || data != nil || from != "" {
					t.Fatalf("Read = %q, %q, %v; want error %v", data, from, err, tc.wantErr)
				}
				if tc.wantErr != fs.ErrNotExist && errors.Is(err, fs.ErrNotExist) {
					t.Errorf("err %v claims no file exists", err)
				}
				if rel := strings.TrimPrefix(err.Error(), dir+string(filepath.Separator)); !strings.HasPrefix(rel, tc.wantErrPrefix) {
					t.Errorf("err %q does not name %s", err, tc.wantErrPrefix)
				}
				return
			}
			wantFrom := path
			if tc.wantPrev {
				wantFrom += PrevSuffix
			}
			if err != nil || string(data) != tc.wantData || from != wantFrom {
				t.Fatalf("Read = %q, %q, %v; want %q from %s", data, from, err, tc.wantData, wantFrom)
			}
		})
	}
}

func TestExistsAndRemove(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if Exists(path) {
		t.Fatal("Exists on an empty directory")
	}
	seed(t, dir, "state.json.prev")
	if !Exists(path) {
		t.Fatal("Exists misses a lone .prev generation")
	}
	seed(t, dir, "state.json")
	if err := Remove(path); err != nil {
		t.Fatal(err)
	}
	if Exists(path) || len(names(t, dir)) != 0 {
		t.Fatalf("Remove left %v", names(t, dir))
	}
	if err := Remove(path); err != nil {
		t.Errorf("Remove of absent generations: %v", err)
	}
	blockWithDir(t, path+PrevSuffix)
	if err := Remove(path); err == nil {
		t.Error("Remove hid the error from a generation it could not delete")
	}
}
