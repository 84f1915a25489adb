package engine

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// flightFactory builds flight-attached adaptive macro streams — the
// full emission surface: rewards, crashes, pool admissions, quarantine
// churn, and scheduler posteriors.
func flightFactory(comp *compilersim.Compiler, pool []string, rec *flight.Recorder) Factory {
	return func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) Worker {
		w := fuzz.NewMacroFuzzer(fmt.Sprintf("s%d", stream), comp, muast.All(),
			pool, rng, cov, fuzz.DefaultMacroConfig())
		if s, err := sched.New("adaptive", len(muast.All())); err == nil {
			w.Sched = s
		}
		w.AttachFlight(rec.Stream(stream))
		return w
	}
}

func armNames() []string {
	all := muast.All()
	names := make([]string, len(all))
	for i, mu := range all {
		names[i] = mu.Name
	}
	return names
}

// TestFlightJournalDeterministicAcrossWorkers is the recorder's core
// contract: for a fixed seed the journal is byte-identical whether the
// streams run on 1, 4, or 16 goroutines — logical time only, stream
// buffers drained in stream order at each barrier.
func TestFlightJournalDeterministicAcrossWorkers(t *testing.T) {
	pool := seeds.Generate(15, 9)
	runAt := func(workers int) []byte {
		comp := compilersim.New("gcc", 14)
		var buf bytes.Buffer
		rec := flight.NewRecorder(flight.Config{
			Streams: 8, TotalSteps: 2000, Seed: 1234,
			Journal: &buf, ArmNames: armNames(),
		})
		cfg := Config{Streams: 8, Workers: workers, StepsPerEpoch: 16,
			TotalSteps: 2000, Seed: 1234, Flight: rec}
		c := New(cfg, flightFactory(comp, pool, rec))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := runAt(1)
	if len(base) == 0 {
		t.Fatal("empty journal")
	}
	for _, want := range []string{`"kind":"campaign"`, `"kind":"epoch"`,
		`"kind":"stream"`, `"kind":"reward"`, `"kind":"end"`} {
		if !bytes.Contains(base, []byte(want)) {
			t.Errorf("journal missing %s events", want)
		}
	}
	for _, w := range []int{4, 16} {
		got := runAt(w)
		if !bytes.Equal(got, base) {
			t.Errorf("workers=%d journal diverged from workers=1 (%d vs %d bytes)",
				w, len(got), len(base))
		}
	}
	t.Logf("journal stable across 1/4/16 workers: %d bytes, %d lines",
		len(base), bytes.Count(base, []byte{'\n'}))
}

// TestFlightJournalResumeConcat checks the second identity: an
// interrupted campaign's journal plus its resumed continuation's
// journal concatenate to exactly the uninterrupted run's journal (the
// resume recorder writes no second campaign header, and the interrupt
// checkpoint dedups against the barrier checkpoint).
func TestFlightJournalResumeConcat(t *testing.T) {
	pool := seeds.Generate(15, 9)
	const totalSteps = 2000

	full := func() []byte {
		comp := compilersim.New("gcc", 14)
		var buf bytes.Buffer
		rec := flight.NewRecorder(flight.Config{
			Streams: 8, TotalSteps: totalSteps, Seed: 1234,
			Journal: &buf, ArmNames: armNames(),
		})
		cfg := Config{Streams: 8, Workers: 4, StepsPerEpoch: 16,
			TotalSteps: totalSteps, Seed: 1234, Flight: rec,
			CheckpointPath:  filepath.Join(t.TempDir(), "full.ckpt"),
			CheckpointEvery: 1,
		}
		c := New(cfg, flightFactory(comp, pool, rec))
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	ckpt := filepath.Join(t.TempDir(), "split.ckpt")

	part1 := func() []byte {
		comp := compilersim.New("gcc", 14)
		var buf bytes.Buffer
		rec := flight.NewRecorder(flight.Config{
			Streams: 8, TotalSteps: totalSteps, Seed: 1234,
			Journal: &buf, ArmNames: armNames(),
		})
		ctx, cancel := context.WithCancel(context.Background())
		cfg := Config{Streams: 8, Workers: 4, StepsPerEpoch: 16,
			TotalSteps: totalSteps, Seed: 1234, Flight: rec,
			CheckpointPath: ckpt, CheckpointEvery: 1,
			OnEpoch: func(done, total int) {
				if done >= total/2 {
					cancel()
				}
			},
		}
		c := New(cfg, flightFactory(comp, pool, rec))
		err := c.Run(ctx)
		cancel()
		if err != ErrInterrupted {
			t.Fatalf("want ErrInterrupted, got %v", err)
		}
		if c.Done() >= totalSteps {
			t.Fatalf("campaign finished (%d steps) before interruption", c.Done())
		}
		return buf.Bytes()
	}()

	part2 := func() []byte {
		comp := compilersim.New("gcc", 14)
		snap, err := Load(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		rec := flight.NewRecorder(flight.Config{
			Streams: 8, TotalSteps: totalSteps, Seed: 1234, Done: snap.Done,
			Journal: &buf, ArmNames: armNames(),
		})
		cfg := Config{Workers: 4, TotalSteps: totalSteps, Flight: rec,
			CheckpointPath: ckpt, CheckpointEvery: 1}
		c, err := Resume(ckpt, cfg, flightFactory(comp, pool, rec))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	joined := append(append([]byte(nil), part1...), part2...)
	if !bytes.Equal(joined, full) {
		t.Errorf("part1+part2 journal (%d bytes) != uninterrupted journal (%d bytes)",
			len(joined), len(full))
	}
}

// TestResumeFinishedLeavesCheckpointsAlone: resuming a finished
// campaign from its primary checkpoint rewrites neither generation —
// the .prev keeps the distinct earlier barrier — and journals no second
// checkpoint line, only the end event the resumed run owes.
func TestResumeFinishedLeavesCheckpointsAlone(t *testing.T) {
	pool := seeds.Generate(15, 9)
	ckpt := filepath.Join(t.TempDir(), "c.ckpt")
	var first bytes.Buffer
	rec := flight.NewRecorder(flight.Config{Streams: 4, TotalSteps: 320, Seed: 5,
		Journal: &first, ArmNames: armNames()})
	cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 16, TotalSteps: 320, Seed: 5,
		Flight: rec, CheckpointPath: ckpt, CheckpointEvery: 2}
	if err := New(cfg, flightFactory(compilersim.New("gcc", 14), pool, rec)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	read := func(p string) []byte {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	primary, prev := read(ckpt), read(ckpt+durable.PrevSuffix)
	if bytes.Equal(primary, prev) {
		t.Fatal("the finished campaign's two generations are equal; the test needs distinct ones")
	}

	snap, err := Load(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	var tail bytes.Buffer
	rec = flight.NewRecorder(flight.Config{Streams: 4, TotalSteps: 320, Seed: 5,
		Done: snap.Done, Journal: &tail, ArmNames: armNames()})
	c, err := Resume(ckpt, Config{Workers: 2, Flight: rec, CheckpointPath: ckpt, CheckpointEvery: 2},
		flightFactory(compilersim.New("gcc", 14), pool, rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(ckpt), primary) || !bytes.Equal(read(ckpt+durable.PrevSuffix), prev) {
		t.Error("resuming a finished campaign rewrote its checkpoint generations")
	}
	if bytes.Contains(tail.Bytes(), []byte(`"kind":"checkpoint"`)) {
		t.Errorf("resumed finished campaign journaled a duplicate checkpoint: %s", tail.String())
	}
}

// TestFlightReportRoundTrip replays a campaign journal through
// ReadJournal/BuildReport and checks the report agrees with both the
// campaign's ground truth and the recorder's running report.
func TestFlightReportRoundTrip(t *testing.T) {
	pool := seeds.Generate(15, 9)
	comp := compilersim.New("gcc", 14)
	var buf bytes.Buffer
	rec := flight.NewRecorder(flight.Config{
		Streams: 8, TotalSteps: 2000, Seed: 1234,
		Journal: &buf, ArmNames: armNames(),
	})
	cfg := Config{Streams: 8, Workers: 4, StepsPerEpoch: 16,
		TotalSteps: 2000, Seed: 1234, Flight: rec}
	c := New(cfg, flightFactory(comp, pool, rec))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	events, err := flight.ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rep := flight.BuildReport(events)

	st := c.MergedStats()
	if rep.Seed != 1234 || rep.Streams != 8 || rep.Total != 2000 {
		t.Errorf("header mismatch: %+v", rep)
	}
	if !rep.Ended || rep.FinalDone != 2000 {
		t.Errorf("end mismatch: ended=%v done=%d", rep.Ended, rep.FinalDone)
	}
	if rep.FinalCrashes != len(st.Crashes) {
		t.Errorf("report crashes %d, campaign %d", rep.FinalCrashes, len(st.Crashes))
	}
	if rep.FinalEdges != st.Coverage.Count() {
		t.Errorf("report edges %d, campaign %d", rep.FinalEdges, st.Coverage.Count())
	}
	// Crash rows are per-stream first discoveries; their distinct
	// signatures must equal the campaign's merged unique crash set.
	sigs := map[string]bool{}
	for _, cr := range rep.Crashes {
		sigs[cr.Signature] = true
	}
	if len(sigs) != len(st.Crashes) {
		t.Errorf("crash rows cover %d signatures, campaign has %d",
			len(sigs), len(st.Crashes))
	}
	if len(rep.Epochs) != c.Epoch() {
		t.Errorf("epoch rows %d, campaign epochs %d", len(rep.Epochs), c.Epoch())
	}

	// The journal replay and the running report must tell one story.
	if got, want := rep.Render(), rec.Report().Render(); got != want {
		t.Errorf("journal-replayed report differs from the running report:\n%s\n---\n%s",
			got, want)
	}
	if r := rep.Render(); !strings.Contains(r, "flight report") ||
		!strings.Contains(r, "timeline") {
		t.Errorf("render missing sections:\n%s", r)
	}
}

// TestFlightCheckpointEvents: each successful snapshot write emits
// exactly one checkpoint event, and chaos-free campaigns raise no
// anomalies at default thresholds.
func TestFlightCheckpointEvents(t *testing.T) {
	pool := seeds.Generate(15, 9)
	comp := compilersim.New("gcc", 14)
	var buf bytes.Buffer
	rec := flight.NewRecorder(flight.Config{
		Streams: 4, TotalSteps: 640, Seed: 5,
		Journal: &buf, ArmNames: armNames(),
	})
	cfg := Config{Streams: 4, Workers: 2, StepsPerEpoch: 16,
		TotalSteps: 640, Seed: 5, Flight: rec,
		CheckpointPath: filepath.Join(t.TempDir(), "c.ckpt"), CheckpointEvery: 2}
	c := New(cfg, flightFactory(comp, pool, rec))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	// 10 epochs, every 2nd checkpointed; the final barrier's write is
	// deduped into the periodic one.
	if rep.Checkpoints == 0 {
		t.Error("no checkpoint events journaled")
	}
	if got := bytes.Count(buf.Bytes(), []byte(`"kind":"checkpoint"`)); got != rep.Checkpoints {
		t.Errorf("journal has %d checkpoint events, report counted %d", got, rep.Checkpoints)
	}
	if n := len(rep.Anomalies); n != 0 {
		t.Errorf("fault-free campaign raised %d anomalies", n)
	}
}

// TestFlightConsolePinned pins the /debug/campaign payload of one
// engine-driven campaign: triage buckets, mutator yields, scheduler
// aggregate, anomalies and each list's order. An armed throughput
// baseline far above any real rate makes the regression watchdog fire,
// so the anomaly list is not empty.
func TestFlightConsolePinned(t *testing.T) {
	pool := seeds.Generate(15, 9)
	comp := compilersim.New("gcc", 14)
	rec := flight.NewRecorder(flight.Config{
		Streams: 8, TotalSteps: 4000, Seed: 1234, ArmNames: armNames(),
	})
	rec.SetBaseline(1e9)
	cfg := Config{Streams: 8, Workers: 4, StepsPerEpoch: 16,
		TotalSteps: 4000, Seed: 1234, Flight: rec}
	c := New(cfg, flightFactory(comp, pool, rec))
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	flight.Routes(rec)[0].Handler.ServeHTTP(w, httptest.NewRequest("GET", "/debug/campaign", nil))
	body := w.Body.Bytes()
	for _, want := range []string{`"triage"`, `"mutators"`, `"sched"`, `"anomalies"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("console payload has no %s list", want)
		}
	}
	sum := sha256.Sum256(body)
	const want = "b7d5d521428189f37b19a71336be09afb08d985e5fbb7a287dd1e2abfd187da6"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("/debug/campaign sha256 = %s, want %s\n%s", got, want, body)
	}
}
