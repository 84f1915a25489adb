package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/icsnju/metamut-go/internal/durable"
)

// submittedLedger admits two jobs on a fresh daemon and kills it,
// leaving a real ledger in the returned state dir: the primary holds
// both admissions, its .prev generation only the first.
func submittedLedger(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	d, err := New(Config{StateDir: dir, Fleet: 1, Logf: tb.Logf})
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Kill()
	for i, tenant := range []string{"alpha", "beta"} {
		if _, err := d.Submit(testSpec(tenant, int64(i+1), 32)); err != nil {
			tb.Fatal(err)
		}
	}
	return dir
}

// TestLoadLedgerEveryTruncation cuts a real ledger at every byte
// offset, with a good .prev beside it: LoadLedger must return the .prev
// generation each time, never a panic and never a ledger decoded from
// the torn bytes.
func TestLoadLedgerEveryTruncation(t *testing.T) {
	dir := submittedLedger(t)
	path := ledgerPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := os.ReadFile(path + durable.PrevSuffix)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeLedger(prev)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	if len(want.Jobs) != 1 {
		t.Fatalf(".prev holds %d jobs, want the generation before the second admission", len(want.Jobs))
	}
	// Cutting only the trailing newline leaves the whole document, so
	// the torn prefixes end before it.
	for cut := range len(bytes.TrimRight(data, "\n")) {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := LoadLedger(dir)
		if err != nil {
			t.Fatalf("cut at %d/%d: %v", cut, len(data), err)
		}
		if got, _ := json.Marshal(l); !bytes.Equal(got, wantJSON) {
			t.Fatalf("cut at %d/%d: loaded %s, want the .prev generation %s", cut, len(data), got, wantJSON)
		}
	}
}

// TestLoadLedgerGenerations: no ledger at all is a first boot, a lone
// good .prev is the ledger, and a lone unreadable .prev is an error
// naming it rather than an empty ledger.
func TestLoadLedgerGenerations(t *testing.T) {
	dir := submittedLedger(t)
	path := ledgerPath(dir)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if l, err := LoadLedger(dir); err != nil || len(l.Jobs) != 1 {
		t.Fatalf("lone good .prev: LoadLedger = %+v, %v; want its one job", l, err)
	}
	if err := os.WriteFile(path+durable.PrevSuffix, []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := LoadLedger(dir)
	if err == nil || !strings.Contains(err.Error(), "ledger.json.prev: ") {
		t.Fatalf("lone torn .prev: LoadLedger = %+v, %v; want an error naming ledger.json.prev", l, err)
	}
	if _, err := New(Config{StateDir: dir, Fleet: 1, Logf: t.Logf}); err == nil {
		t.Fatal("daemon booted over a lone torn ledger.json.prev")
	}
	if err := os.Remove(path + durable.PrevSuffix); err != nil {
		t.Fatal(err)
	}
	if l, err := LoadLedger(dir); err != nil || len(l.Jobs) != 0 || l.NextSeq != NewLedger().NextSeq {
		t.Fatalf("no ledger: LoadLedger = %+v, %v; want an empty ledger", l, err)
	}
}

// FuzzLedgerLoad: ledger decoding returns a ledger or an error for any
// input, never a panic.
func FuzzLedgerLoad(f *testing.F) {
	data, err := os.ReadFile(ledgerPath(submittedLedger(f)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := decodeLedger(data)
		if (l == nil) == (err == nil) {
			t.Fatalf("decodeLedger = %v, %v: want exactly one of a ledger or an error", l, err)
		}
	})
}

// TestSubmitLogsSpecWriteFailure: a spec.json that cannot be written is
// logged, and the job is admitted anyway — the ledger record, not the
// audit copy, is what recovery reads.
func TestSubmitLogsSpecWriteFailure(t *testing.T) {
	dir := t.TempDir()
	// A non-empty directory at j0001's spec.json survives Submit's wipe
	// and cannot be replaced by a rename.
	if err := os.MkdirAll(filepath.Join(JobDir(dir, "j0001"), SpecFile, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logs []string
	d, err := New(Config{StateDir: dir, Fleet: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	id, err := d.Submit(testSpec("alpha", 1, 32))
	if err != nil || id != "j0001" {
		t.Fatalf("Submit = %q, %v; want j0001 admitted", id, err)
	}
	if rec, ok := d.Job(id); !ok || rec.State != Pending {
		t.Fatalf("job %s: record %+v (found %v), want PENDING", id, rec, ok)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, line := range logs {
		if strings.HasPrefix(line, "serve: job j0001 spec write: ") {
			return
		}
	}
	t.Errorf("spec.json failure not logged; logs: %q", logs)
}

// TestSubmitRefusesUnwipedCheckpoint: when a re-issued job ID's stale
// checkpoint cannot be removed, Submit fails rather than admit a job
// that would resume it. A non-empty directory is the one obstacle to a
// remove that holds for root too; buildRuntime would also fail to read
// it, so the test requires the wipe's own error.
func TestSubmitRefusesUnwipedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(JobDir(dir, "j0001"), CheckpointFile, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{StateDir: dir, Fleet: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()
	id, err := d.Submit(testSpec("alpha", 1, 32))
	var serr *Error
	if !errors.As(err, &serr) || serr.Code != CodeInternal {
		t.Fatalf("Submit = %q, %v; want a %s error", id, err, CodeInternal)
	}
	if !strings.Contains(serr.Message, "stale checkpoint not wiped") {
		t.Errorf("error %q does not come from the wipe", serr.Message)
	}
	if _, ok := d.Job("j0001"); ok {
		t.Error("job j0001 admitted over an unwipeable checkpoint")
	}
}
