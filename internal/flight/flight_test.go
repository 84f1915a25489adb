package flight

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/sched"
)

// barrier fabricates one EpochInfo with uniform per-stream summaries —
// the watchdog tests drive the recorder with synthetic barriers instead
// of a live campaign.
func barrier(epoch, done, edges int, streams ...StreamInfo) EpochInfo {
	return EpochInfo{Epoch: epoch, Done: done, Total: 1000, Edges: edges,
		Streams: streams}
}

func anomalyKinds(r *Recorder) []string {
	var kinds []string
	for _, ev := range r.Console().Anomalies {
		kinds = append(kinds, ev.Data["watchdog"].(string))
	}
	return kinds
}

func TestHeaderOnlyOnFreshStart(t *testing.T) {
	var fresh, resumed bytes.Buffer
	NewRecorder(Config{Streams: 2, TotalSteps: 100, Seed: 7, Journal: &fresh})
	NewRecorder(Config{Streams: 2, TotalSteps: 100, Seed: 7, Done: 50, Journal: &resumed})
	if !bytes.Contains(fresh.Bytes(), []byte(`"kind":"campaign"`)) {
		t.Errorf("fresh recorder wrote no campaign header: %q", fresh.String())
	}
	if resumed.Len() != 0 {
		t.Errorf("resumed recorder (Done=50) wrote %q, want nothing", resumed.String())
	}
}

// TestEndEpochDrainOrder: mid-epoch stream events are journaled in
// stream order at the barrier with the barrier's epoch stamped on,
// regardless of emission interleaving, followed by the per-stream
// summaries and the epoch event.
func TestEndEpochDrainOrder(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Config{Streams: 3, TotalSteps: 100, Journal: &buf})
	// Emit "out of order" by stream: 2 first, then 0, then 1.
	r.Stream(2).Emit(5, "cov", map[string]any{"edges": 9})
	r.Stream(0).Emit(3, "cov", map[string]any{"edges": 4})
	r.Stream(1).Emit(7, "crash", map[string]any{"sig": "a|b"})
	r.EndEpoch(barrier(1, 48, 13,
		StreamInfo{Stream: 0, Ticks: 16}, StreamInfo{Stream: 1, Ticks: 16},
		StreamInfo{Stream: 2, Ticks: 16}))

	var got []Event
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte{'\n'}) {
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		got = append(got, ev)
	}
	wantKinds := []string{"campaign", "cov", "crash", "cov",
		"stream", "stream", "stream", "epoch"}
	wantStreams := []int{-1, 0, 1, 2, 0, 1, 2, -1}
	if len(got) != len(wantKinds) {
		t.Fatalf("journal has %d events, want %d", len(got), len(wantKinds))
	}
	for i, ev := range got {
		if ev.Kind != wantKinds[i] || ev.Stream != wantStreams[i] {
			t.Errorf("event %d = %s/stream%d, want %s/stream%d",
				i, ev.Kind, ev.Stream, wantKinds[i], wantStreams[i])
		}
		if ev.Kind != "campaign" && ev.Epoch != 1 {
			t.Errorf("event %d (%s) stamped epoch %d, want 1", i, ev.Kind, ev.Epoch)
		}
	}
}

// TestReportMatchesReplay: the recorder's running report is what the
// journal replays into, header included, well past the 65,536 events
// an in-memory event ring once held. The regression baseline is large
// enough that its anomaly carries a seven-digit value, which a replay
// reads back as a float64.
func TestReportMatchesReplay(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Config{Streams: 2, TotalSteps: 99000, Seed: 7, Journal: &buf,
		Watchdogs: WatchdogConfig{BaselineEdgesPer1k: 5e6}})
	names := []string{"swap", "hoist", "fold", "split", "wrap"}
	for e := 1; e <= 300; e++ {
		for s := 0; s < 2; s++ {
			for i := 0; i < 110; i++ {
				r.Stream(s).Emit(330*e+i, "reward", map[string]any{
					"m": names[(e+s+i)%len(names)], "cov": i%3 == 0, "crash": i%50 == s})
			}
			if e%7 == s {
				r.Stream(s).Emit(330*e+200, "crash", map[string]any{
					"sig": names[e%len(names)] + "|x", "component": "Parser",
					"class": "ICE", "via": names[s]})
			}
		}
		info := barrier(e, 330*e, 10+e/2,
			StreamInfo{Stream: 0, Ticks: 330 * e, Total: 165 * e},
			StreamInfo{Stream: 1, Ticks: 330 * e, Total: 165 * e, Poisoned: e > 290})
		if e > 290 {
			info.Poisoned = []int{1}
		}
		if e%40 == 0 {
			info.Retries = 5 // a retry_spike anomaly
		}
		r.EndEpoch(info)
		if e%25 == 0 {
			r.Checkpoint(e, 330*e, 4096)
		}
	}
	r.End(99000, 160, 4)

	events, err := ReadJournal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) <= 1<<16 {
		t.Fatalf("journal has %d events, want more than %d", len(events), 1<<16)
	}
	got, want := r.Report(), BuildReport(events)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("running report differs from the replay:\n%+v\n---\n%+v", got, want)
	}
	if g, w := got.Render(), want.Render(); g != w {
		t.Errorf("running report renders differently from the replay:\n%s\n---\n%s", g, w)
	}
	if head := "flight report — seed 7, 2 streams, budget 99000 steps\n"; !strings.HasPrefix(got.Render(), head) {
		t.Errorf("report header = %q, want %q", strings.SplitN(got.Render(), "\n", 2)[0], head)
	}
	if len(got.Epochs) != 300 || len(got.Anomalies) != 8 || !got.Ended {
		t.Errorf("report has %d epochs, %d anomalies, ended=%v; want 300, 8, true",
			len(got.Epochs), len(got.Anomalies), got.Ended)
	}
	// A resumed recorder writes no header but still names its campaign.
	resumed := NewRecorder(Config{Streams: 2, TotalSteps: 99000, Seed: 7, Done: 500})
	if rep := resumed.Report(); rep.Seed != 7 || rep.Streams != 2 || rep.Total != 99000 {
		t.Errorf("resumed report header = %d/%d/%d, want 7/2/99000", rep.Seed, rep.Streams, rep.Total)
	}
}

func TestWatchdogStalledStreamFiresAndRearms(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Config{Streams: 2, Registry: reg})
	live := func(ticks0, ticks1 int) []StreamInfo {
		return []StreamInfo{{Stream: 0, Ticks: ticks0}, {Stream: 1, Ticks: ticks1}}
	}
	// Stream 1 advances every epoch; stream 0 freezes at 100.
	r.EndEpoch(barrier(1, 10, 5, live(100, 100)...))
	for e := 2; e <= 5; e++ { // 4 consecutive frozen epochs for stream 0
		r.EndEpoch(barrier(e, 10*e, 5+e, live(100, 100*e)...))
	}
	if got := anomalyKinds(r); len(got) != 1 || got[0] != "stalled_stream" {
		t.Fatalf("anomalies after 4 frozen epochs = %v, want [stalled_stream]", got)
	}
	if ev := r.Console().Anomalies[0]; ev.Stream != 0 || ev.Epoch != 5 {
		t.Errorf("stall attributed to stream %d epoch %d, want stream 0 epoch 5",
			ev.Stream, ev.Epoch)
	}
	// Stream 0 moves again (re-arms the detector), then freezes again.
	r.EndEpoch(barrier(6, 60, 12, live(120, 600)...))
	for e := 7; e <= 10; e++ {
		r.EndEpoch(barrier(e, 10*e, 6+e, live(120, 100*e)...))
	}
	if got := anomalyKinds(r); len(got) != 2 {
		t.Fatalf("detector did not re-arm after progress: %v", got)
	}
	if v := reg.Counter("flight_anomalies_total", "kind").With("stalled_stream").Value(); v != 2 {
		t.Errorf("flight_anomalies_total{stalled_stream} = %d, want 2", v)
	}
}

func TestWatchdogSkipsPoisonedStreams(t *testing.T) {
	r := NewRecorder(Config{Streams: 1})
	for e := 1; e <= 10; e++ { // frozen forever, but poisoned
		r.EndEpoch(barrier(e, 10*e, 5,
			StreamInfo{Stream: 0, Ticks: 100, Poisoned: true}))
	}
	for _, kind := range anomalyKinds(r) {
		if kind == "stalled_stream" {
			t.Error("poisoned stream reported as stalled")
		}
	}
}

func TestWatchdogCoveragePlateau(t *testing.T) {
	r := NewRecorder(Config{Streams: 1})
	si := StreamInfo{Stream: 0}
	for e := 1; e <= 9; e++ {
		si.Ticks = 100 * e
		r.EndEpoch(barrier(e, 10*e, 42, si)) // edges never move
	}
	got := anomalyKinds(r)
	if len(got) != 1 || got[0] != "coverage_plateau" {
		t.Fatalf("anomalies = %v, want [coverage_plateau]", got)
	}
	if ep := r.Console().Anomalies[0].Epoch; ep != 9 {
		t.Errorf("plateau fired at epoch %d, want 9 (8 flat epochs after baseline)", ep)
	}
	// Once fired it stays quiet until edges grow again.
	si.Ticks = 1000
	r.EndEpoch(barrier(10, 100, 42, si))
	if n := len(r.Console().Anomalies); n != 1 {
		t.Errorf("plateau re-fired without coverage growth: %d anomalies", n)
	}
}

func TestWatchdogQuarantineStorm(t *testing.T) {
	r := NewRecorder(Config{Streams: 1})
	for i := 0; i < 3; i++ {
		r.Stream(0).Emit(10+i, "quarantine", map[string]any{"id": i})
	}
	r.EndEpoch(barrier(1, 16, 5, StreamInfo{Stream: 0, Ticks: 16}))
	got := anomalyKinds(r)
	if len(got) != 1 || got[0] != "quarantine_storm" {
		t.Fatalf("anomalies = %v, want [quarantine_storm]", got)
	}
	if c := r.Console().Anomalies[0].Data["count"]; c != 3 {
		t.Errorf("storm count = %v, want 3", c)
	}
}

func TestWatchdogRetrySpike(t *testing.T) {
	r := NewRecorder(Config{Streams: 1})
	info := barrier(1, 16, 5, StreamInfo{Stream: 0, Ticks: 16})
	info.Retries = 3 // below default threshold 4
	r.EndEpoch(info)
	if n := len(r.Console().Anomalies); n != 0 {
		t.Fatalf("3 retries raised %d anomalies, threshold is 4", n)
	}
	info = barrier(2, 32, 5, StreamInfo{Stream: 0, Ticks: 32})
	info.Retries = 5
	r.EndEpoch(info)
	got := anomalyKinds(r)
	if len(got) != 1 || got[0] != "retry_spike" {
		t.Fatalf("anomalies = %v, want [retry_spike]", got)
	}
}

func TestWatchdogSchedStarvation(t *testing.T) {
	r := NewRecorder(Config{Streams: 1, ArmNames: []string{"a", "b", "c"}})
	post := &sched.State{Kind: "adaptive", Arms: 3, Ticks: 2500,
		Picks: []int64{1200, 0, 1300}, Rewards: []float64{10, 0, 20}}
	r.EndEpoch(barrier(1, 16, 5,
		StreamInfo{Stream: 0, Ticks: 2500, Sched: post}))
	got := anomalyKinds(r)
	if len(got) != 1 || got[0] != "sched_starvation" {
		t.Fatalf("anomalies = %v, want [sched_starvation]", got)
	}
	data := r.Console().Anomalies[0].Data
	if data["arms"] != 1 || data["first"] != "b" {
		t.Errorf("starvation data = %v, want arms=1 first=b", data)
	}
	// Fires once per stream, even while the arm stays unpicked.
	r.EndEpoch(barrier(2, 32, 6,
		StreamInfo{Stream: 0, Ticks: 2600, Sched: post}))
	if n := len(r.Console().Anomalies); n != 1 {
		t.Errorf("starvation fired %d times for one stream, want 1", n)
	}
}

func TestWatchdogThroughputRegression(t *testing.T) {
	r := NewRecorder(Config{Streams: 1,
		Watchdogs: WatchdogConfig{BaselineEdgesPer1k: 1000}})
	// 500 ticks: below regressionMinTicks, no judgment yet.
	r.EndEpoch(barrier(1, 500, 10, StreamInfo{Stream: 0, Ticks: 500}))
	if n := len(r.Console().Anomalies); n != 0 {
		t.Fatalf("regression judged before regressionMinTicks: %d anomalies", n)
	}
	// 2500 ticks at 10 edges → 4 edges/1k, far below the 500 floor.
	r.EndEpoch(barrier(2, 2500, 10, StreamInfo{Stream: 0, Ticks: 2500}))
	got := anomalyKinds(r)
	if len(got) != 1 || got[0] != "throughput_regression" {
		t.Fatalf("anomalies = %v, want [throughput_regression]", got)
	}
	data := r.Console().Anomalies[0].Data
	if data["edges_per_1k"] != 4 || data["baseline_per_1k"] != 1000 ||
		data["floor_milli"] != 500 {
		t.Errorf("regression data = %v", data)
	}
	// Fires once.
	r.EndEpoch(barrier(3, 3000, 10, StreamInfo{Stream: 0, Ticks: 3000}))
	if n := len(r.Console().Anomalies); n != 1 {
		t.Errorf("regression fired %d times, want 1", n)
	}
}

func TestWatchdogDisable(t *testing.T) {
	r := NewRecorder(Config{Streams: 1,
		Watchdogs: WatchdogConfig{Disable: true, BaselineEdgesPer1k: 1000}})
	for i := 0; i < 5; i++ {
		r.Stream(0).Emit(i, "quarantine", map[string]any{"id": i})
	}
	for e := 1; e <= 12; e++ { // frozen ticks, flat edges, huge retries
		info := barrier(e, 10*e, 5, StreamInfo{Stream: 0, Ticks: 5000})
		info.Retries = 99
		r.EndEpoch(info)
	}
	if n := len(r.Console().Anomalies); n != 0 {
		t.Errorf("disabled watchdogs raised %d anomalies", n)
	}
}

func TestBenchBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	blob := `{"variants":[
		{"name":"uniform","sched":"uniform","edges_per_1k_ticks":1500.5},
		{"name":"uniform+cache","sched":"uniform","edges_per_1k_ticks":1629.0},
		{"name":"adaptive","sched":"adaptive","edges_per_1k_ticks":1700.25}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := BenchBaseline(path, "uniform"); err != nil || got != 1629.0 {
		t.Errorf("uniform baseline = %v, %v; want cache variant 1629.0", got, err)
	}
	if got, err := BenchBaseline(path, ""); err != nil || got != 1629.0 {
		t.Errorf("empty kind baseline = %v, %v; want uniform+cache 1629.0", got, err)
	}
	// No adaptive+cache variant: best bare adaptive match wins.
	if got, err := BenchBaseline(path, "adaptive"); err != nil || got != 1700.25 {
		t.Errorf("adaptive baseline = %v, %v; want 1700.25", got, err)
	}
	if _, err := BenchBaseline(path, "thompson"); err == nil {
		t.Error("unknown policy resolved to a baseline, want error")
	}
	if _, err := BenchBaseline(filepath.Join(t.TempDir(), "gone.json"), "uniform"); err == nil {
		t.Error("missing baseline file did not error")
	}
}

func TestBenchBaselineCommittedFile(t *testing.T) {
	// The repo's committed ablation record must stay consumable — it is
	// what `mucfuzz -flight-baseline BENCH_sched.json` arms the
	// regression watchdog with.
	for _, kind := range []string{"uniform", "adaptive"} {
		got, err := BenchBaseline("../../BENCH_sched.json", kind)
		if err != nil {
			t.Fatalf("BENCH_sched.json unusable for %q: %v", kind, err)
		}
		if got <= 0 {
			t.Errorf("%q baseline = %v, want > 0", kind, got)
		}
	}
}

func TestSchedTop(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	st := &sched.State{Picks: []int64{10, 0, 5, 20},
		Rewards: []float64{5, 0, 4, 2}} // means: 0.5, -, 0.8, 0.1
	top := schedTop(st, names, 2)
	if len(top) != 2 {
		t.Fatalf("schedTop returned %d arms, want 2", len(top))
	}
	if top[0]["m"] != "c" || top[0]["mw"] != int64(800) {
		t.Errorf("top arm = %v, want c/800", top[0])
	}
	if top[1]["m"] != "a" || top[1]["picks"] != int64(10) {
		t.Errorf("second arm = %v, want a/10 picks", top[1])
	}
	if schedTop(nil, names, 3) != nil {
		t.Error("nil posterior should summarize to nil")
	}
	if schedTop(st, names[:2], 3) != nil {
		t.Error("name/arm length mismatch should summarize to nil")
	}
	if schedTop(&sched.State{Picks: make([]int64, 4), Rewards: make([]float64, 4)},
		names, 3) != nil {
		t.Error("all-zero posterior should summarize to nil")
	}
}

// feedConsole drives one recorder through a deterministic event
// sequence covering triage, yields, posteriors, and an anomaly.
func feedConsole(r *Recorder) {
	r.Stream(0).Emit(3, "reward", map[string]any{"m": "swap", "cov": true})
	r.Stream(0).Emit(5, "crash", map[string]any{
		"sig": "x|y", "component": "Parser", "class": "ICE", "via": "swap"})
	r.Stream(1).Emit(2, "reward", map[string]any{"m": "hoist", "crash": true})
	r.Stream(1).Emit(4, "crash", map[string]any{
		"sig": "x|y", "component": "Parser", "class": "ICE", "via": "swap"})
	post := &sched.State{Picks: []int64{6, 10}, Rewards: []float64{3, 1}}
	info := barrier(1, 32, 7,
		StreamInfo{Stream: 0, Ticks: 16, Total: 20, Crashes: 1, Edges: 5,
			Pool: 9, Sched: post},
		StreamInfo{Stream: 1, Ticks: 16, Total: 19, Crashes: 1, Edges: 4,
			Sched: post})
	info.Retries = 5 // trips retry_spike so Anomalies is non-empty
	r.EndEpoch(info)
}

func TestConsoleDeterministicAndAggregated(t *testing.T) {
	build := func() *Recorder {
		r := NewRecorder(Config{Streams: 2, TotalSteps: 100, Seed: 9,
			ArmNames: []string{"swap", "hoist"}})
		feedConsole(r)
		return r
	}
	a, b := build().Console(), build().Console()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Errorf("identical campaigns render different console JSON:\n%s\n%s", aj, bj)
	}

	if a.Progress.Done != 32 || a.Progress.Edges != 7 || a.Progress.Crashes != 2 {
		t.Errorf("progress = %+v", a.Progress)
	}
	if len(a.Triage) != 1 || a.Triage[0].Hits != 2 || a.Triage[0].Via != "swap" {
		t.Errorf("triage = %+v, want one x|y bucket with 2 hits via swap", a.Triage)
	}
	if len(a.Mutators) != 2 || a.Mutators[0].Name != "hoist" {
		// hoist has a crash credit, which outranks swap's coverage credit.
		t.Errorf("mutators = %+v, want hoist first", a.Mutators)
	}
	// Both streams share the posterior: picks double, means survive.
	if len(a.Sched) != 2 || a.Sched[0].Name != "swap" || a.Sched[0].Picks != 12 ||
		a.Sched[0].MeanMilli != 500 {
		t.Errorf("sched = %+v, want swap first with 12 picks mean 500m", a.Sched)
	}
	if len(a.Anomalies) != 1 {
		t.Errorf("console carries %d anomalies, want 1", len(a.Anomalies))
	}
	if (*Recorder)(nil).Console() == nil {
		t.Error("nil recorder console must be non-nil")
	}
}

func TestHandleConsoleEndpoint(t *testing.T) {
	r := NewRecorder(Config{Streams: 2, TotalSteps: 100, Seed: 9,
		ArmNames: []string{"swap", "hoist"}})
	feedConsole(r)
	routes := Routes(r)
	if len(routes) != 2 {
		t.Fatalf("Routes returned %d routes, want 2", len(routes))
	}
	if Routes(nil) != nil {
		t.Error("nil recorder should mount no routes")
	}
	rec := httptest.NewRecorder()
	r.handleConsole(rec, httptest.NewRequest("GET", "/debug/campaign", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var st ConsoleState
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("console payload is not JSON: %v", err)
	}
	if st.Campaign.Seed != 9 || st.Progress.Done != 32 {
		t.Errorf("decoded console = %+v", st)
	}
}

func TestSubscribeDeliversJournalLines(t *testing.T) {
	r := NewRecorder(Config{Streams: 1})
	ch, cancel := r.Subscribe()
	defer cancel()
	r.Checkpoint(2, 64, 1234)
	select {
	case line := <-ch:
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil || ev.Kind != "checkpoint" {
			t.Errorf("subscriber got %q (%v), want a checkpoint event", line, err)
		}
	default:
		t.Fatal("subscriber channel empty after an append")
	}
	cancel()
	cancel() // idempotent
	r.Checkpoint(3, 96, 1234)
	select {
	case _, open := <-ch:
		if open {
			t.Error("cancelled subscriber still receives events")
		}
	default: // nothing delivered: also fine
	}
}

func TestSubscribeSlowConsumerDrops(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Config{Streams: 1, Registry: reg})
	_, cancel := r.Subscribe()
	defer cancel()
	for i := 0; i < 1100; i++ { // channel buffers 1024; the rest drop
		r.Checkpoint(1, i, 10)
	}
	if v := reg.Counter("flight_sse_dropped_total").With().Value(); v == 0 {
		t.Error("no drops counted for a saturated subscriber")
	}
	if v := reg.Gauge("flight_sse_clients").With().Value(); v != 1 {
		t.Errorf("flight_sse_clients = %d, want 1", v)
	}
	cancel()
	if v := reg.Gauge("flight_sse_clients").With().Value(); v != 0 {
		t.Errorf("flight_sse_clients after cancel = %d, want 0", v)
	}
}

// sseRecorder is a goroutine-safe http.ResponseWriter+Flusher: the SSE
// handler writes from its own goroutine while the test polls the body
// (httptest.ResponseRecorder is not safe for that).
type sseRecorder struct {
	mu     sync.Mutex
	header http.Header
	buf    bytes.Buffer
}

func (r *sseRecorder) Header() http.Header { return r.header }
func (r *sseRecorder) WriteHeader(int)     {}
func (r *sseRecorder) Flush()              {}
func (r *sseRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}
func (r *sseRecorder) Body() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.String()
}

func TestSSEHandlerStreamsEvents(t *testing.T) {
	reg := obs.NewRegistry()
	r := NewRecorder(Config{Streams: 1, Registry: reg})
	req := httptest.NewRequest("GET", "/debug/campaign/stream", nil)
	ctx, cancelReq := context.WithCancel(req.Context())
	req = req.WithContext(ctx)
	rec := &sseRecorder{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		r.handleSSE(rec, req)
		close(done)
	}()
	// Wait for the handler to subscribe, then emit and disconnect.
	clients := reg.Gauge("flight_sse_clients").With()
	for i := 0; clients.Value() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if clients.Value() == 0 {
		t.Fatal("SSE handler never subscribed")
	}
	r.Checkpoint(1, 10, 99)
	for i := 0; !strings.Contains(rec.Body(), "checkpoint") && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancelReq()
	<-done
	body := rec.Body()
	if !strings.HasPrefix(body, ": flight journal stream\n\n") {
		t.Errorf("SSE preamble missing: %q", body)
	}
	if !strings.Contains(body, `data: {"epoch":1,"stream":-1,"kind":"checkpoint"`) {
		t.Errorf("SSE body missing checkpoint event: %q", body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content-type = %q", ct)
	}
}

func TestJournalErrorIsSticky(t *testing.T) {
	r := NewRecorder(Config{Streams: 1, Journal: failWriter{}})
	if err := r.JournalErr(); err == nil {
		t.Fatal("failed header write not surfaced by JournalErr")
	}
	r.Checkpoint(1, 10, 5) // must not panic or reset the error
	if err := r.JournalErr(); err == nil || err.Error() != "disk gone" {
		t.Errorf("JournalErr = %v, want sticky 'disk gone'", err)
	}
	if r.Report().Checkpoints != 1 {
		t.Error("running report stopped folding after a journal error")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errDiskGone }

var errDiskGone = errors.New("disk gone")

func TestStatusLine(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewStatus()
	s.Now = func() time.Time { return now }

	first := s.Line(0, 1000, 0, 0, 95.0)
	if !strings.Contains(first, "warming up") {
		t.Errorf("first line = %q, want warming-up marker", first)
	}
	now = now.Add(10 * time.Second) // 100 steps and 50 edges in 10s
	line := s.Line(100, 1000, 50, 1, 95.0)
	if !strings.Contains(line, "10.0 steps/s") || !strings.Contains(line, "5.0 edges/s") {
		t.Errorf("line = %q, want 10.0 steps/s and 5.0 edges/s", line)
	}
	if !strings.Contains(line, "eta 1m30s") { // 900 remaining / 10 per s
		t.Errorf("line = %q, want eta 1m30s", line)
	}
	// Three flat-coverage updates raise the stall flag.
	for i := 0; i < 3; i++ {
		now = now.Add(10 * time.Second)
		line = s.Line(100+(i+1)*10, 1000, 50, 1, 95.0)
	}
	if !strings.Contains(line, "[STALL]") {
		t.Errorf("line = %q, want [STALL] after 3 flat updates", line)
	}
	now = now.Add(10 * time.Second)
	if line = s.Line(140, 1000, 60, 1, 95.0); strings.Contains(line, "[STALL]") {
		t.Errorf("line = %q, stall flag should clear on new coverage", line)
	}
}

func TestReportTimelineCompression(t *testing.T) {
	events := []Event{{Stream: -1, Kind: "campaign",
		Data: map[string]any{"seed": 1, "streams": 2, "total": 10000}}}
	for e := 1; e <= 40; e++ {
		events = append(events, Event{Epoch: e, Stream: -1, Kind: "epoch",
			Data: map[string]any{"done": 100 * e, "total": 10000, "edges": 5 * e}})
	}
	rep := BuildReport(events)
	if len(rep.Epochs) != 40 {
		t.Fatalf("report has %d epoch rows, want 40", len(rep.Epochs))
	}
	out := rep.Render()
	if !strings.Contains(out, "omitted") {
		t.Errorf("40-epoch timeline not compressed:\n%s", out)
	}
	if !strings.Contains(out, "interrupted") {
		t.Errorf("endless journal should render as interrupted:\n%s", out)
	}
	// Rendering is a pure function of the events.
	if out != BuildReport(events).Render() {
		t.Error("Render is not deterministic")
	}
	// A kind nothing emits any more (breaker, in older journals) still
	// reads and builds, and the reporter ignores it.
	stray, err := ReadJournal(strings.NewReader(
		`{"epoch":7,"stream":-1,"kind":"breaker","data":{"from":"closed","to":"open"}}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := BuildReport(append(stray, events...)).Render(); got != out {
		t.Errorf("stray breaker line changed the report:\n%s", got)
	}
}

func TestReadJournalRejectsMalformedLines(t *testing.T) {
	in := strings.NewReader(`{"epoch":1,"stream":-1,"kind":"epoch"}` + "\n\n{not json\n")
	if _, err := ReadJournal(in); err == nil ||
		!strings.Contains(err.Error(), "line 3") {
		t.Errorf("malformed line error = %v, want line 3 reference", err)
	}
	events, err := ReadJournal(strings.NewReader(""))
	if err != nil || len(events) != 0 {
		t.Errorf("empty journal = %v, %v", events, err)
	}
}

// TestRestoreWatchdogsContinuesCounters: a recorder rebuilt over a
// journal prefix (checkpoint resume) must journal exactly what one that
// lived through the whole campaign journals after that prefix — every
// detector's counters continue and fired latches survive — at every cut.
// The script fires each of the six detectors; the regression detector
// is armed on every recorder.
func TestRestoreWatchdogsContinuesCounters(t *testing.T) {
	const epochs = 16
	post := &sched.State{Kind: "adaptive", Arms: 3, Ticks: 2500,
		Picks: []int64{5, 0, 7}, Rewards: []float64{1, 0, 2}}
	barrierAt := func(r *Recorder, e int) {
		// Stream 0 freezes at 100 ticks until epoch 10 (stall fires at
		// 5), then is poisoned from 14; stream 1 advances and shows an
		// unpicked arm from 5 (starvation). Edges stop growing at 3
		// (plateau fires at 11) and are too few for the baseline once
		// 2,000 ticks are in (regression fires at 7). Epoch 7 also
		// carries a quarantine storm; epochs 7 and 13 a retry spike.
		s0 := StreamInfo{Stream: 0, Ticks: 100}
		if e >= 10 {
			s0.Ticks = 100 * e
		}
		if e >= 14 {
			s0.Ticks, s0.Poisoned = 1300, true
		}
		s1 := StreamInfo{Stream: 1, Ticks: 300 * e}
		if e >= 5 {
			s1.Sched = post
		}
		r.Stream(1).Emit(300*e-5, "reward", map[string]any{"m": "b", "cov": e%2 == 0})
		if e%4 == 0 {
			r.Stream(0).Emit(90, "crash", map[string]any{"sig": "p|q", "via": "a"})
		}
		info := barrier(e, 10*e, min(e, 3), s0, s1)
		if e == 7 {
			for i := 0; i < 3; i++ {
				r.Stream(1).Emit(300*e-i, "quarantine", map[string]any{"id": i})
			}
		}
		if e == 7 || e == 13 {
			info.Retries = 5
		}
		if e >= 14 {
			info.Poisoned = []int{0}
		}
		r.EndEpoch(info)
	}
	newRec := func(done int, journal *bytes.Buffer, hook func(Event)) *Recorder {
		r := NewRecorder(Config{Streams: 2, TotalSteps: 1000, Seed: 3, Done: done,
			Journal: journal, ArmNames: []string{"a", "b", "c"}, OnAnomaly: hook})
		r.SetBaseline(1000)
		return r
	}

	var whole bytes.Buffer
	ref := newRec(0, &whole, nil)
	cuts := []int{whole.Len()} // cuts[k]: journal length after epoch k
	for e := 1; e <= epochs; e++ {
		barrierAt(ref, e)
		cuts = append(cuts, whole.Len())
	}
	want := map[string]int{"stalled_stream": 1, "sched_starvation": 1,
		"quarantine_storm": 1, "retry_spike": 2, "throughput_regression": 1,
		"coverage_plateau": 1}
	got := map[string]int{}
	for _, kind := range anomalyKinds(ref) {
		got[kind]++
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("script fired %v, want %v", got, want)
	}

	for k := 1; k < epochs; k++ {
		prefix, wantTail := whole.Bytes()[:cuts[k]], whole.String()[cuts[k]:]
		var tail bytes.Buffer
		hooked := 0
		resumed := newRec(10*k, &tail, func(Event) { hooked++ })
		resumed.RestoreWatchdogs(prefix)
		if hooked != 0 {
			t.Errorf("cut %d: OnAnomaly fired %d times during the restore", k, hooked)
		}
		for e := k + 1; e <= epochs; e++ {
			barrierAt(resumed, e)
		}
		if tail.String() != wantTail {
			t.Errorf("cut %d: resumed journal tail diverged:\ngot  %q\nwant %q", k, tail.String(), wantTail)
		}
		if n := strings.Count(wantTail, `"kind":"anomaly"`); hooked != n {
			t.Errorf("cut %d: OnAnomaly fired %d times after the restore, want %d", k, hooked, n)
		}
		if g, w := resumed.Report(), ref.Report(); !reflect.DeepEqual(g, w) {
			t.Errorf("cut %d: restored report differs from the uninterrupted one:\n%+v\n---\n%+v", k, g, w)
		}
	}
}

// TestEndAfterRestoreJournalsLastEpoch: a recorder restored from a
// prefix that ends at epoch E and ended before any live barrier (a
// resumed campaign that was already finished, or a restarted job
// cancelled before its first slice) journals its end event at E, not 0.
func TestEndAfterRestoreJournalsLastEpoch(t *testing.T) {
	var prefix bytes.Buffer
	r := NewRecorder(Config{Streams: 1, TotalSteps: 1000, Journal: &prefix})
	for e := 1; e <= 3; e++ {
		r.EndEpoch(barrier(e, 10*e, e, StreamInfo{Stream: 0, Ticks: 10 * e}))
	}

	var tail bytes.Buffer
	resumed := NewRecorder(Config{Streams: 1, TotalSteps: 1000, Done: 30, Journal: &tail})
	resumed.RestoreWatchdogs(prefix.Bytes())
	resumed.End(30, 3, 0)
	want, err := EncodeLine(EndEvent(3, 30, 3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if tail.String() != string(want) {
		t.Errorf("restored recorder journaled %q, want %q", tail.String(), want)
	}
}

// TestStopJournalKeepsFolding: after StopJournal nothing more reaches
// the journal, while the running report keeps every event.
func TestStopJournalKeepsFolding(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Config{Streams: 1, TotalSteps: 100, Journal: &buf})
	r.EndEpoch(barrier(1, 10, 1, StreamInfo{Stream: 0, Ticks: 10}))
	n := buf.Len()
	r.StopJournal()
	r.EndEpoch(barrier(2, 20, 2, StreamInfo{Stream: 0, Ticks: 20}))
	r.Checkpoint(2, 20, 5)
	if buf.Len() != n {
		t.Errorf("journal grew from %d to %d bytes after StopJournal", n, buf.Len())
	}
	if rep := r.Report(); len(rep.Epochs) != 2 || rep.Checkpoints != 1 {
		t.Errorf("report after StopJournal: %d epochs, %d checkpoints; want 2 and 1",
			len(rep.Epochs), rep.Checkpoints)
	}
	if err := r.JournalErr(); err != nil {
		t.Errorf("StopJournal surfaced as a journal error: %v", err)
	}
}
