package serve

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/icsnju/metamut-go/internal/resil/chaos"
	"github.com/icsnju/metamut-go/internal/serve/heal"
)

// newChaosDaemon builds a daemon with the serve chaos injector armed.
// Any coordinator panic that escapes slice supervision is a test
// failure: the acceptance bar is that injected faults strike jobs,
// never the daemon.
func newChaosDaemon(t *testing.T, dir string, fleet int, ccfg chaos.ServeConfig, hcfg heal.Config) (*Daemon, *chaos.ServeInjector) {
	t.Helper()
	inj := chaos.NewServeInjector(ccfg)
	d, err := New(Config{
		StateDir: dir,
		Fleet:    fleet,
		Heal:     hcfg,
		Chaos: &ChaosHooks{
			SliceStart:          inj.SliceStart,
			CheckpointTransform: inj.CheckpointTransform,
			LedgerTransform:     inj.LedgerTransform,
		},
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "coordinator panicked") {
				t.Errorf("daemon crashed under chaos: "+format, args...)
			}
			t.Logf(format, args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, inj
}

// TestDaemonChaosSurvivorsByteIdentical is the acceptance gate for the
// self-healing layer: with hash-scheduled slice panics, a designated
// poison job, transient checkpoint ENOSPC, and torn ledger saves all
// injected, the daemon must never crash, the poison job must land in
// QUARANTINED with its partial artifacts intact, and every surviving
// job's journal and triage must be byte-identical to an uninjected
// run — at fleet sizes 1, 4, and 16.
//
// Seed 21 with 1-in-5 panic sites is chosen so each surviving job
// takes exactly one recovered panic (strike 1 of 3) before finishing:
// every survivor exercises the replay-from-barrier path without any
// reaching the quarantine threshold.
func TestDaemonChaosSurvivorsByteIdentical(t *testing.T) {
	want := runUninterrupted(t, 1)

	ccfg := chaos.ServeConfig{
		Seed:            21,
		SlicePanicEvery: 5,
		PoisonJobSeq:    3, // j0003: alpha/33/64 — 4 epochs, slice 0 runs clean
		PoisonAfter:     1,
		// Transient: with N >= 2 at most one write attempt per checkpoint
		// fails, the engine's in-call retry heals it, and journal bytes
		// are unaffected (the checkpoint event lands only on success).
		CheckpointENOSPCEvery: 5,
		LedgerTearEvery:       3,
	}

	for _, fleet := range []int{1, 4, 16} {
		dir := t.TempDir()
		d, inj := newChaosDaemon(t, dir, fleet, ccfg, heal.Config{})
		ids := submitAll(t, d)
		go d.Run()
		recs := waitJobs(t, d, ids)
		d.Stop()

		poison := recs[ids[2]]
		if poison.State != Quarantined {
			t.Fatalf("fleet %d: poison job %s ended %s (%s), want QUARANTINED",
				fleet, poison.ID, poison.State, poison.Error)
		}
		if poison.Strikes != 3 {
			t.Errorf("fleet %d: poison job strikes = %d, want 3", fleet, poison.Strikes)
		}
		if !strings.Contains(poison.Error, "quarantined after 3 strikes") ||
			!strings.Contains(poison.Error, "poison-job panic") {
			t.Errorf("fleet %d: poison job error = %q", fleet, poison.Error)
		}
		// Slice 0 ran clean before the poison kicked in: the quarantined
		// job keeps its first epoch's progress, journal, and triage.
		if epoch := poison.Spec.Streams * poison.Spec.StepsPerEpoch; poison.Done != epoch {
			t.Errorf("fleet %d: poison job done = %d, want one clean epoch (%d)",
				fleet, poison.Done, epoch)
		}
		pdir := JobDir(dir, poison.ID)
		if j, err := os.ReadFile(filepath.Join(pdir, JournalFile)); err != nil || len(j) == 0 {
			t.Errorf("fleet %d: poison job journal missing or empty (%v)", fleet, err)
		}
		if _, err := os.Stat(filepath.Join(pdir, TriageFile)); err != nil {
			t.Errorf("fleet %d: poison job triage: %v", fleet, err)
		}

		for _, id := range []string{ids[0], ids[1], ids[3]} {
			rec := recs[id]
			if rec.State != Done {
				t.Fatalf("fleet %d: survivor %s ended %s (%s), want DONE",
					fleet, id, rec.State, rec.Error)
			}
			if got := artifactsFor(t, dir, rec); got != want[id] {
				t.Errorf("fleet %d: survivor %s diverged from uninjected run\n got: %+v\nwant: %+v",
					fleet, id, got, want[id])
			}
		}

		// The panic schedule is a pure function of (seed, job, attempt):
		// identical at every fleet size.
		f := inj.Faults()
		if f.PoisonPanics != 3 || f.SlicePanics != 3 {
			t.Errorf("fleet %d: faults = %+v, want 3 poison + 3 slice panics", fleet, f)
		}
		if f.ENOSPCWrites == 0 || f.TornLedgers == 0 {
			t.Errorf("fleet %d: faults = %+v, want ENOSPC and torn-ledger injections", fleet, f)
		}
	}
}

// TestDaemonFloodingTenantShed drives the overload governor: past the
// high-water mark, new admissions get a structured `overloaded` error
// with a Retry-After hint, malformed specs are still rejected as such,
// the already-admitted jobs complete normally, and admissions reopen
// once the load drains.
func TestDaemonFloodingTenantShed(t *testing.T) {
	dir := t.TempDir()
	d, _ := newChaosDaemon(t, dir, 2, chaos.ServeConfig{},
		heal.Config{HighWaterJobs: 2, RetryAfterSeconds: 7})

	var ids []string
	for _, spec := range []JobSpec{testSpec("alpha", 11, 32), testSpec("beta", 22, 32)} {
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	// The flooding tenant hits the shed wall, deterministically.
	for i := 0; i < 5; i++ {
		_, err := d.Submit(testSpec("flood", int64(100+i), 32))
		var se *Error
		if !errors.As(err, &se) || se.Code != CodeOverloaded {
			t.Fatalf("flood submit %d: err = %v, want %s", i, err, CodeOverloaded)
		}
		if se.Status != 503 || se.RetryAfter != 7 {
			t.Fatalf("flood submit %d: status %d retry-after %d, want 503/7", i, se.Status, se.RetryAfter)
		}
	}
	// Malformed specs are the client's fault even under overload.
	_, err := d.Submit(JobSpec{SpecVersion: 99, Tenant: "flood"})
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeBadSpec {
		t.Fatalf("malformed submit: err = %v, want %s", err, CodeBadSpec)
	}

	go d.Run()
	recs := waitJobs(t, d, ids)
	for id, rec := range recs {
		if rec.State != Done {
			t.Fatalf("admitted job %s ended %s (%s), want DONE", id, rec.State, rec.Error)
		}
	}
	// Load drained: the same tenant is welcome again, in fixed order.
	if _, err := d.Submit(testSpec("flood", 200, 32)); err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	d.Stop()
}

// TestDaemonDiskPressureLadder simulates a sustained full disk: every
// checkpoint write attempt fails, so the governor climbs the full
// degradation ladder — shed SSE, cap journals, stretch checkpoints,
// quarantine admissions — the job is struck out on checkpoint errors,
// and the daemon stays up and refuses new work instead of crash-looping.
func TestDaemonDiskPressureLadder(t *testing.T) {
	dir := t.TempDir()
	d, _ := newChaosDaemon(t, dir, 1,
		chaos.ServeConfig{CheckpointENOSPCEvery: 1},
		heal.Config{DiskTripAfter: 1, DiskClearAfter: 64})
	id, err := d.Submit(testSpec("alpha", 11, 32))
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	recs := waitJobs(t, d, []string{id})
	rec := recs[id]
	if rec.State != Quarantined {
		t.Fatalf("job ended %s (%s), want QUARANTINED", rec.State, rec.Error)
	}
	if !strings.Contains(rec.Error, "checkpoint_error") {
		t.Errorf("quarantine cause = %q, want checkpoint_error", rec.Error)
	}
	if !rec.JournalCapped {
		t.Error("journal not capped despite sustained disk pressure")
	}
	if lvl := d.heal.Level(); lvl != heal.LevelQuarantineAdmissions {
		t.Fatalf("disk level = %s, want quarantine_admissions", lvl)
	}
	// The top rung sheds admissions outright, with the disk as reason.
	_, err = d.Submit(testSpec("beta", 22, 32))
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeOverloaded || !strings.Contains(se.Message, "disk") {
		t.Fatalf("submit at top rung: err = %v, want %s (disk)", err, CodeOverloaded)
	}
	// Still alive and answering.
	if err := d.Cancel("j9999"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
	d.Stop()
}

// TestDaemonCappedJournalStaysCapped: a job whose journal the disk
// governor capped keeps it capped across a kill and restart. The
// restarted daemon's governor starts calm, but the job record says
// capped, so the restarted job neither appends after the gap nor
// repairs the journal: the file ends as the cap left it.
func TestDaemonCappedJournalStaysCapped(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, dir, 1)
	id, err := d1.Submit(testSpec("alpha", 11, 960))
	if err != nil {
		t.Fatal(err)
	}
	go d1.Run()
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := d1.Job(id)
		if rec.Done > 0 {
			break
		}
		if rec.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job made no progress before the cap: %+v", rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d1.mu.Lock()
	d1.applyDiskLevelLocked(heal.LevelCapJournals)
	d1.saveLedgerLocked()
	d1.mu.Unlock()
	path := filepath.Join(JobDir(dir, id), JournalFile)
	capped, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d1.Kill()
	if rec, _ := d1.Job(id); rec.State.Terminal() {
		t.Fatalf("job finished before the kill; the restart resumes nothing")
	}

	d2 := newTestDaemon(t, dir, 1)
	go d2.Run()
	rec := waitJobs(t, d2, []string{id})[id]
	d2.Stop()
	if rec.State != Done || !rec.JournalCapped {
		t.Fatalf("restarted job ended %s, capped %v; want DONE and capped", rec.State, rec.JournalCapped)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(capped) {
		t.Errorf("capped journal changed across the restart: %d bytes, then %d", len(capped), len(got))
	}
}

// TestDaemonRestartAfterTornLedgerAndENOSPC is the satellite extension
// of TestDaemonKillRestartByteIdentical: the first daemon generation
// runs with torn ledger saves and transient checkpoint ENOSPC injected,
// is killed mid-campaign (its primary ledger may be garbage), and a
// clean daemon over the same state dir must fall back to the .prev
// ledger generation, resume every job from its checkpoint, and finish
// byte-identical to an uninjected run.
func TestDaemonRestartAfterTornLedgerAndENOSPC(t *testing.T) {
	want := runUninterrupted(t, 1)

	dir := t.TempDir()
	d1, inj := newChaosDaemon(t, dir, 2, chaos.ServeConfig{
		CheckpointENOSPCEvery: 5,
		LedgerTearEvery:       2,
	}, heal.Config{})
	ids := submitAll(t, d1)
	go d1.Run()
	// Enough progress that checkpoint writes have crossed several ENOSPC
	// sites (one periodic checkpoint per 16-step epoch) and several torn
	// ledger generations are on disk, but well short of the 384-step
	// total budget.
	deadline := time.Now().Add(time.Minute)
	for !time.Now().After(deadline) {
		sum := 0
		for _, id := range ids {
			rec, _ := d1.Job(id)
			sum += rec.Done
		}
		if sum >= 176 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	d1.Kill()
	if f := inj.Faults(); f.ENOSPCWrites == 0 || f.TornLedgers == 0 {
		t.Fatalf("chaos generation injected nothing: %+v", f)
	}

	d2 := newTestDaemon(t, dir, 4)
	go d2.Run()
	recs := waitJobs(t, d2, ids)
	d2.Stop()
	for id, rec := range recs {
		if rec.State != Done {
			t.Fatalf("job %s ended %s (%s), want DONE", id, rec.State, rec.Error)
		}
		if got := artifactsFor(t, dir, rec); got != want[id] {
			t.Errorf("job %s diverged after chaos restart\n got: %+v\nwant: %+v", id, got, want[id])
		}
	}
}
