package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mutants_total", "mutator", "outcome").With("AddElseBranch", "ok")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same label values resolve to the same handle.
	again := r.Counter("mutants_total").With("AddElseBranch", "ok")
	if again != c {
		t.Error("same series resolved to a different handle")
	}
	g := r.Gauge("coverage_edges", "fuzzer").With("f1")
	g.Set(100)
	g.Add(-30)
	if g.Value() != 70 {
		t.Errorf("gauge = %d, want 70", g.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	// Every call on a nil registry (and the nil handles it returns) must
	// be a silent no-op — this is the "observability off" contract.
	r.Counter("x", "l").With("v").Inc()
	r.Gauge("y").With().Set(3)
	r.Histogram("z", nil, "l").With("v").Observe(1)
	if sp := r.Span("s"); sp != nil || sp.End() != 0 {
		t.Error("nil registry Span should return a nil span that ends at 0")
	}
	if r.Uptime() != 0 {
		t.Error("nil registry leaked state")
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Mix resolved-handle and per-iteration lookups so both the
			// fast path and family creation race against each other.
			mine := r.Counter("ticks").With()
			for i := 0; i < perWorker; i++ {
				mine.Inc()
				r.Counter("mutants_total", "mutator", "outcome").
					With("m", []string{"ok", "reject"}[i%2]).Inc()
				r.Gauge("edges", "fuzzer").With("f").Set(int64(i))
				r.Histogram("lat", []float64{0.5, 1}, "stage").
					With("s").Observe(float64(i % 3))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Counter("ticks"); got != workers*perWorker {
		t.Errorf("ticks = %d, want %d", got, workers*perWorker)
	}
	if got := snap.CounterSum("mutants_total"); got != workers*perWorker {
		t.Errorf("mutants_total sum = %d, want %d", got, workers*perWorker)
	}
	h := r.Histogram("lat", nil, "stage").With("s")
	if h.Count() != workers*perWorker {
		t.Errorf("hist count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 2, 4}, "l").With("v")
	// Prometheus "le" semantics: a value equal to an upper bound belongs
	// to that bucket; anything above the last bound is +Inf.
	for _, v := range []float64{0.5, 1.0, 1.0001, 2.0, 3.9, 4.0, 4.0001, 100} {
		h.Observe(v)
	}
	// le=1:{0.5,1} le=2:{1.0001,2} le=4:{3.9,4} +Inf:{4.0001,100}
	want := []int64{2, 2, 2, 2}
	got := h.BucketCounts()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("bucket counts = %v, want %v", got, want)
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}
	if sum := h.Sum(); sum < 116.4 || sum > 116.41 {
		t.Errorf("sum = %v, want ~116.4002", sum)
	}
}

func TestBucketLayouts(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if !reflect.DeepEqual(exp, []float64{1, 2, 4, 8}) {
		t.Errorf("ExpBuckets = %v", exp)
	}
	lin := LinearBuckets(1, 3, 3)
	if !reflect.DeepEqual(lin, []float64{1, 4, 7}) {
		t.Errorf("LinearBuckets = %v", lin)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "a", "b").With("x", "y").Add(7)
	r.Counter("c").With("x", "z").Add(1)
	r.Gauge("g").With().Set(-4)
	r.Histogram("h", []float64{1, 2}, "l").With("v").Observe(1.5)

	snap := r.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("c", "x", "y") != 7 || back.Counter("c", "x", "z") != 1 {
		t.Errorf("counter series lost in round trip: %s", data)
	}
	if len(back.Gauges) != 1 || back.Gauges[0].Series[0].Value != -4 {
		t.Errorf("gauge lost in round trip: %s", data)
	}
	if len(back.Hists) != 1 || back.Hists[0].Series[0].Count != 1 ||
		back.Hists[0].Series[0].Sum != 1.5 {
		t.Errorf("histogram lost in round trip: %s", data)
	}

	// Determinism: equal registry state must serialize byte-identically
	// once the capture timestamps are normalized.
	snap2 := r.Snapshot()
	snap.TakenAt, snap2.TakenAt = time.Time{}, time.Time{}
	snap.UptimeMs, snap2.UptimeMs = 0, 0
	d1, _ := json.Marshal(snap)
	d2, _ := json.Marshal(snap2)
	if !bytes.Equal(d1, d2) {
		t.Errorf("snapshots differ:\n%s\n%s", d1, d2)
	}
}

func TestSpanTimingMonotonic(t *testing.T) {
	r := NewRegistry()
	sp := r.Span("stage")
	time.Sleep(5 * time.Millisecond)
	d := sp.End()
	if d < 5*time.Millisecond {
		t.Errorf("span duration %v < slept 5ms", d)
	}
	h := r.Histogram("span_seconds", nil, "span").With("stage")
	if h.Count() != 1 {
		t.Fatalf("span_seconds count = %d, want 1", h.Count())
	}
	if h.Sum() < 0.005 {
		t.Errorf("span_seconds sum = %v, want >= 0.005", h.Sum())
	}
	// Durations never decrease across sequential spans' accumulated sum.
	sp2 := r.Span("stage")
	d2 := sp2.End()
	if d2 < 0 {
		t.Errorf("negative duration %v", d2)
	}
	if h.Count() != 2 {
		t.Errorf("second span not recorded")
	}
}

func TestServeDebug(t *testing.T) {
	r := NewRegistry()
	r.Counter("compile_ticks").With().Add(42)
	srv, addr, err := r.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var snap Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/metrics not JSON: %v\n%s", err, body)
	}
	if snap.Counter("compile_ticks") != 42 {
		t.Errorf("served snapshot missing counter: %s", body)
	}
	if resp, err := http.Get("http://" + addr + "/debug/pprof/cmdline"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("pprof cmdline status = %d", resp.StatusCode)
		}
	} else {
		t.Errorf("pprof endpoint: %v", err)
	}
}
