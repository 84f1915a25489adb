package serve

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/obs"
)

// TestLocalRunMatchesDaemonJob drives Build the way mucfuzz -macro
// does (own registry, ring-only recorder, checkpoint every 8 epochs)
// and requires the daemon job of the same spec to end in the same
// place: identical final checkpoint (every stream's merged stats,
// corpus, RNG and scheduler state), counters and triage bytes.
func TestLocalRunMatchesDaemonJob(t *testing.T) {
	spec := testSpec("pin", 3, 256)
	spec.StepsPerEpoch = 16
	spec.Reduce = true

	dir := t.TempDir()
	d := newTestDaemon(t, dir, 1)
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	rec := waitJobs(t, d, []string{id})[id]
	d.Stop()

	local := t.TempDir()
	c, err := Build(spec, engine.Config{
		Workers:         3,
		CheckpointPath:  filepath.Join(local, CheckpointFile),
		CheckpointEvery: 8,
		Registry:        obs.NewRegistry(),
	}, &flight.Config{}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := c.Triage(c.Compiler, engine.TriageConfig{Reduce: spec.Reduce})
	if err := rep.WriteJSON(filepath.Join(local, TriageFile)); err != nil {
		t.Fatal(err)
	}
	agg := c.MergedStats()
	if rec.Done != c.Done() || rec.Epochs != c.Epoch() ||
		rec.Edges != agg.Coverage.Count() || rec.Crashes != len(agg.Crashes) {
		t.Errorf("daemon record %d steps/%d epochs/%d edges/%d crashes, local run %d/%d/%d/%d",
			rec.Done, rec.Epochs, rec.Edges, rec.Crashes,
			c.Done(), c.Epoch(), agg.Coverage.Count(), len(agg.Crashes))
	}
	for _, f := range []string{CheckpointFile, TriageFile} {
		want, err := os.ReadFile(filepath.Join(JobDir(dir, id), f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(local, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("local %s differs from the daemon job's", f)
		}
	}
}

// TestBuildResumeRule pins the one resume rule: the snapshot owns seed,
// streams, steps-per-epoch and scheduling policy whatever the spec
// says, a larger spec budget extends the campaign and a smaller one
// does not shrink it, and an unreadable checkpoint is an error rather
// than a silent fresh start.
func TestBuildResumeRule(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "c.json")
	if _, err := Build(JobSpec{Tenant: "t"}, engine.Config{CheckpointPath: ckpt}, nil, "", 0); err == nil {
		t.Error("a fresh campaign without a step budget was built")
	}
	spec := testSpec("t", 5, 64)
	spec.Sched = "uniform"
	c, err := Build(spec, engine.Config{CheckpointPath: ckpt}, nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Unlock()

	for _, tc := range []struct{ steps, want int }{{128, 128}, {32, 64}, {0, 64}} {
		other := JobSpec{Tenant: "t", Steps: tc.steps} // defaults: seed 1, 16 streams, adaptive
		r, err := Build(other, engine.Config{CheckpointPath: ckpt}, nil, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := r.Config()
		r.Unlock()
		if r.From != ckpt || r.Spec.Steps != tc.want || r.Spec.Streams != 2 || r.Spec.Sched != "uniform" {
			t.Errorf("steps %d: Build reports resume from %q as %+v", tc.steps, r.From, r.Spec)
		}
		if cfg.Seed != 5 || cfg.Streams != 2 || cfg.StepsPerEpoch != 8 || cfg.TotalSteps != tc.want {
			t.Errorf("steps %d: resumed as seed %d, %d streams, %d steps/epoch, budget %d; want 5, 2, 8, %d",
				tc.steps, cfg.Seed, cfg.Streams, cfg.StepsPerEpoch, cfg.TotalSteps, tc.want)
		}
		if got := r.Workers()[0].(engine.SchedWorker).SchedState().Kind; got != "uniform" {
			t.Errorf("steps %d: resumed with %s scheduling, want the snapshot's uniform", tc.steps, got)
		}
	}

	if err := os.WriteFile(ckpt, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(ckpt + durable.PrevSuffix)
	if _, err := Build(spec, engine.Config{CheckpointPath: ckpt}, nil, "", 0); err == nil {
		t.Error("Build started fresh over an unreadable checkpoint")
	}
}

// TestResumedJobDecodesCheckpointOnce covers the resume path every
// daemon admission and mucfuzz -resume take: Build decodes the
// checkpoint once, and the journal repair and the resumed campaign both
// use that one snapshot. After the decode both generations on disk are
// replaced with garbage; Build must still resume, and the campaign and
// its journal must finish byte-identical to an uninterrupted run's.
func TestResumedJobDecodesCheckpointOnce(t *testing.T) {
	spec := testSpec("t", 5, 64)
	wholeDir := t.TempDir()
	c, err := Build(spec, engine.Config{CheckpointPath: filepath.Join(wholeDir, CheckpointFile)},
		&flight.Config{}, filepath.Join(wholeDir, JournalFile), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()

	dir := t.TempDir()
	ckpt, journal := filepath.Join(dir, CheckpointFile), filepath.Join(dir, JournalFile)
	c, err = Build(spec, engine.Config{CheckpointPath: ckpt}, &flight.Config{}, journal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunSlice(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	c.Close()
	snap, from, err := engine.LoadWithFallback(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	decodes := 0
	decodeSnapshot = func(data []byte) (*engine.Snapshot, error) {
		decodes++
		s, err := engine.DecodeSnapshot(data)
		for _, p := range []string{ckpt, ckpt + durable.PrevSuffix} {
			if werr := os.WriteFile(p, []byte("{torn"), 0o644); werr != nil {
				t.Fatal(werr)
			}
		}
		return s, err
	}
	t.Cleanup(func() { decodeSnapshot = engine.DecodeSnapshot })
	r, err := Build(spec, engine.Config{CheckpointPath: ckpt}, &flight.Config{}, journal, 0)
	if err != nil {
		t.Fatalf("Build re-read the checkpoint it had decoded: %v", err)
	}
	if decodes != 1 {
		t.Errorf("Build decoded the checkpoint %d times, want 1", decodes)
	}
	if r.Done() != snap.Done || r.From != from {
		t.Fatalf("resumed at step %d from %q, want %d from %q", r.Done(), r.From, snap.Done, from)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	r.Close()
	for _, f := range []string{CheckpointFile, JournalFile} {
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(wholeDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("the resumed campaign's final %s differs from an uninterrupted run's", f)
		}
	}
}

// flightSpec is a small campaign whose stream ticks cross the
// throughput-regression watchdog's 2,000-tick floor in the third of
// its five epochs, so an armed baseline makes the watchdog fire
// mid-run.
func flightSpec() JobSpec {
	spec := testSpec("t", 3, 5120)
	spec.Streams, spec.StepsPerEpoch = 8, 128
	return spec
}

// runFlight runs flightSpec through Build the way mucfuzz -macro
// -flight -flight-baseline does, with the checkpoint and journal in
// dir, and cancels it at the barrier of epoch stop (0 = never). It
// returns the campaign, closed, and its recorder's report.
func runFlight(t *testing.T, dir string, every int, maxBytes int64, stop int) (*Campaign, *flight.Report) {
	t.Helper()
	spec := flightSpec()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := Build(spec, engine.Config{
		Workers:         2,
		CheckpointPath:  filepath.Join(dir, CheckpointFile),
		CheckpointEvery: every,
		OnEpoch: func(done, _ int) {
			if stop > 0 && done >= stop*spec.Streams*spec.StepsPerEpoch {
				cancel()
			}
		},
	}, &flight.Config{}, filepath.Join(dir, JournalFile), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	c.Flight.SetBaseline(1e9)
	err = c.Run(ctx)
	if stop > 0 && !errors.Is(err, engine.ErrInterrupted) || stop == 0 && err != nil {
		t.Fatalf("run stopping at epoch %d: %v", stop, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c, c.Flight.Report()
}

// journalOf reads the logical journal in dir: its rotated generation,
// if any, then the current file.
func journalOf(t *testing.T, dir string) string {
	t.Helper()
	rotated, _ := os.ReadFile(filepath.Join(dir, JournalFile) + obs.RotatedSuffix) // absent unless rotated
	return string(rotated) + readJournal(t, filepath.Join(dir, JournalFile))
}

const regressionLine = `"watchdog":"throughput_regression"`

// TestBuildResumeContinuesJournal is the one journal rule end to end:
// a campaign built by Build, cancelled at barrier k and resumed by
// Build over the same checkpoint and journal path, holds the
// uninterrupted run's journal byte for byte, journals the anomaly once
// and reports what the uninterrupted run reports — for every k at
// checkpoint cadence 1.
func TestBuildResumeContinuesJournal(t *testing.T) {
	ref := t.TempDir()
	c, want := runFlight(t, ref, 1, 0, 0)
	whole := journalOf(t, ref)
	if n := strings.Count(whole, regressionLine); n != 1 || len(want.Anomalies) != 1 {
		t.Fatalf("uninterrupted run journaled %d regressions (%d anomalies), want 1", n, len(want.Anomalies))
	}
	if fired := want.Anomalies[0].Epoch; fired >= c.Epoch() {
		t.Fatalf("the regression fires at epoch %d of %d; no cut would follow it", fired, c.Epoch())
	}
	for k := 1; k < c.Epoch(); k++ {
		dir := t.TempDir()
		runFlight(t, dir, 1, 0, k)
		r, got := runFlight(t, dir, 1, 0, 0)
		if r.From == "" || r.PartialJournal {
			t.Fatalf("cut %d: resumed from %q, partial journal %v", k, r.From, r.PartialJournal)
		}
		if j := journalOf(t, dir); j != whole {
			t.Errorf("cut %d: resumed journal (%d bytes) differs from the uninterrupted one (%d bytes)",
				k, len(j), len(whole))
		} else if n := strings.Count(j, regressionLine); n != 1 {
			t.Errorf("cut %d: regression journaled %d times", k, n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("cut %d: resumed report differs from the uninterrupted one:\n got %+v\nwant %+v", k, got, want)
		}
	}
}

// TestBuildResumeOffCadence: with checkpoints every 2 epochs, an
// interrupt at epoch 3 writes the one checkpoint an uninterrupted run
// does not; that line is the only difference in journal and report.
func TestBuildResumeOffCadence(t *testing.T) {
	ref := t.TempDir()
	_, want := runFlight(t, ref, 2, 0, 0)
	dir := t.TempDir()
	runFlight(t, dir, 2, 0, 3)
	_, got := runFlight(t, dir, 2, 0, 0)
	j, whole := journalOf(t, dir), journalOf(t, ref)
	extra := ""
	for _, l := range strings.SplitAfter(j, "\n") {
		if strings.HasPrefix(l, `{"epoch":3,"stream":-1,"kind":"checkpoint"`) {
			extra = l
		}
	}
	if extra == "" || strings.Replace(j, extra, "", 1) != whole {
		t.Errorf("resumed journal is not the uninterrupted one plus the epoch-3 checkpoint (extra line %q)", extra)
	}
	if n := strings.Count(j, regressionLine); n != 1 {
		t.Errorf("regression journaled %d times", n)
	}
	got.Checkpoints--
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed report differs beyond the extra checkpoint:\n got %+v\nwant %+v", got, want)
	}
}

// TestBuildResumeAcrossRotation: a -flight-max-bytes journal that
// rotated once before the interrupt is repaired and replayed as one
// logical journal (.1, then the current file), so the resumed campaign
// still journals one anomaly, reports what an uninterrupted run
// reports, and leaves both generations as that run leaves them. When a
// second rotation has dropped the journal's head, Build says so.
func TestBuildResumeAcrossRotation(t *testing.T) {
	ref := t.TempDir()
	c, want := runFlight(t, ref, 1, 0, 0)
	size := int64(len(journalOf(t, ref)))

	once := t.TempDir()
	runFlight(t, once, 1, size*3/5, c.Epoch()-1)
	if _, err := os.Stat(filepath.Join(once, JournalFile) + obs.RotatedSuffix); err != nil {
		t.Fatalf("no rotation before the interrupt: %v", err)
	}
	r, got := runFlight(t, once, 1, size*3/5, 0)
	if r.PartialJournal {
		t.Error("a journal rotated once was reported partial")
	}
	if j := journalOf(t, once); j != journalOf(t, ref) {
		t.Errorf("rotated journal (%d bytes) differs from the uninterrupted one (%d bytes)", len(j), size)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed report differs from the uninterrupted one:\n got %+v\nwant %+v", got, want)
	}

	twice := t.TempDir()
	runFlight(t, twice, 1, size/4, c.Epoch()-1)
	if r, _ := runFlight(t, twice, 1, size/4, 0); !r.PartialJournal {
		t.Error("a journal whose head two rotations dropped was not reported partial")
	}
}

// TestBuildResumeFinishedJournalsEnd is the daemon's boot path for a
// job killed after its final barrier but before its bookkeeping: Build
// resumes the finished campaign, repair drops the end event the killed
// run may have written, and the recorder, having run no live barrier,
// journals the end event at the last replayed epoch. The journal comes
// out as the uninterrupted run left it.
func TestBuildResumeFinishedJournalsEnd(t *testing.T) {
	dir := t.TempDir()
	runFlight(t, dir, 1, 0, 0)
	whole := journalOf(t, dir)
	c, err := Build(flightSpec(), engine.Config{CheckpointPath: filepath.Join(dir, CheckpointFile)},
		&flight.Config{}, filepath.Join(dir, JournalFile), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Finished() {
		t.Fatal("the resumed campaign is not finished")
	}
	agg := c.MergedStats()
	c.Flight.End(c.Done(), agg.Coverage.Count(), len(agg.Crashes))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := journalOf(t, dir); got != whole {
		t.Errorf("journal after finishing the resumed campaign (%d bytes) differs from the uninterrupted one (%d bytes)",
			len(got), len(whole))
	}
}
