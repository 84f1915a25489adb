package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/icsnju/metamut-go/internal/durable"
)

// Snapshot is a point-in-time, JSON-serializable view of a registry.
// Families and series are sorted, so equal registry states produce
// byte-identical JSON.
type Snapshot struct {
	TakenAt  time.Time    `json:"taken_at"`
	UptimeMs int64        `json:"uptime_ms"`
	Counters []Family     `json:"counters"`
	Gauges   []Family     `json:"gauges"`
	Hists    []HistFamily `json:"histograms"`
}

// Family is one counter or gauge family.
type Family struct {
	Name   string   `json:"name"`
	Labels []string `json:"labels,omitempty"`
	Series []Series `json:"series"`
}

// Series is one labeled value inside a family.
type Series struct {
	LabelValues []string `json:"label_values,omitempty"`
	Value       int64    `json:"value"`
}

// HistFamily is one histogram family; all series share Buckets.
type HistFamily struct {
	Name    string       `json:"name"`
	Labels  []string     `json:"labels,omitempty"`
	Buckets []float64    `json:"buckets"`
	Series  []HistSeries `json:"series"`
}

// HistSeries is one labeled histogram: Counts aligns with the family's
// Buckets plus a final +Inf entry.
type HistSeries struct {
	LabelValues []string `json:"label_values,omitempty"`
	Counts      []int64  `json:"counts"`
	Count       int64    `json:"count"`
	Sum         float64  `json:"sum"`
}

// splitKey reverses the label-value join; an empty key is the single
// unlabeled series.
func splitKey(key string) []string {
	if key == "" {
		return nil
	}
	return strings.Split(key, labelSep)
}

// Snapshot captures the current state of every family.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{TakenAt: time.Now()}
	if r == nil {
		return snap
	}
	snap.UptimeMs = r.Uptime().Milliseconds()

	r.mu.RLock()
	counters := make([]*CounterVec, 0, len(r.counters))
	for _, f := range r.counters {
		counters = append(counters, f)
	}
	gauges := make([]*GaugeVec, 0, len(r.gauges))
	for _, f := range r.gauges {
		gauges = append(gauges, f)
	}
	hists := make([]*HistogramVec, 0, len(r.hists))
	for _, f := range r.hists {
		hists = append(hists, f)
	}
	r.mu.RUnlock()

	snap.Counters = make([]Family, 0, len(counters))
	for _, f := range counters {
		fam := Family{Name: f.name, Labels: f.labels}
		keys, handles := f.series()
		for i, k := range keys {
			fam.Series = append(fam.Series, Series{
				LabelValues: splitKey(k), Value: handles[i].Value()})
		}
		snap.Counters = append(snap.Counters, fam)
	}
	snap.Gauges = make([]Family, 0, len(gauges))
	for _, f := range gauges {
		fam := Family{Name: f.name, Labels: f.labels}
		keys, handles := f.series()
		for i, k := range keys {
			fam.Series = append(fam.Series, Series{
				LabelValues: splitKey(k), Value: handles[i].Value()})
		}
		snap.Gauges = append(snap.Gauges, fam)
	}
	snap.Hists = make([]HistFamily, 0, len(hists))
	for _, f := range hists {
		fam := HistFamily{Name: f.name, Labels: f.labels, Buckets: f.buckets}
		keys, handles := f.series()
		for i, k := range keys {
			h := handles[i]
			fam.Series = append(fam.Series, HistSeries{
				LabelValues: splitKey(k), Counts: h.BucketCounts(),
				Count: h.Count(), Sum: h.Sum()})
		}
		snap.Hists = append(snap.Hists, fam)
	}
	sortFamilies(snap)
	return snap
}

func sortFamilies(s *Snapshot) {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
}

// Counter returns the named counter series' value from the snapshot
// (0 when absent) — a convenience for tests and status lines.
func (s *Snapshot) Counter(name string, labelValues ...string) int64 {
	for _, f := range s.Counters {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			if equalValues(ser.LabelValues, labelValues) {
				return ser.Value
			}
		}
	}
	return 0
}

// CounterSum returns the sum over every series of a counter family.
func (s *Snapshot) CounterSum(name string) int64 {
	var total int64
	for _, f := range s.Counters {
		if f.Name != name {
			continue
		}
		for _, ser := range f.Series {
			total += ser.Value
		}
	}
	return total
}

// FamilyInfo describes one registered metric family independent of its
// current values — the shape docs/METRICS.md documents and the
// metrics-doc test diffs against.
type FamilyInfo struct {
	Name   string   // family name, e.g. "mutants_total"
	Kind   string   // "counter", "gauge", or "histogram"
	Labels []string // label names in registration order (nil if unlabeled)
}

// Families enumerates every registered family sorted by name. Families
// exist from registration (the first Counter/Gauge/Histogram call), so
// pre-registering event-gated metrics makes them visible here even
// before any event fires.
func (r *Registry) Families() []FamilyInfo {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]FamilyInfo, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, f := range r.counters {
		out = append(out, FamilyInfo{Name: f.name, Kind: "counter", Labels: f.labels})
	}
	for _, f := range r.gauges {
		out = append(out, FamilyInfo{Name: f.name, Kind: "gauge", Labels: f.labels})
	}
	for _, f := range r.hists {
		out = append(out, FamilyInfo{Name: f.name, Kind: "histogram", Labels: f.labels})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func equalValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteJSON writes the snapshot as indented JSON with durable.Write.
func (s *Snapshot) WriteJSON(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return durable.Write(path, append(data, '\n'), false)
}

// expvarPublished guards against expvar.Publish's panic on duplicate
// names when several registries (tests) publish in one process.
var expvarPublished sync.Map

// PublishExpvar exposes the registry under the given expvar name; the
// standard /debug/vars handler then serves it. Re-publishing a taken
// name is a no-op (the first registry wins).
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	if _, dup := expvarPublished.LoadOrStore(name, true); dup {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}

// Route is one extra handler mounted on the debug server — how
// subsystems (e.g. the flight recorder's /debug/campaign) extend the
// standard endpoint set without owning the server.
type Route struct {
	Pattern string
	Handler http.Handler
}

// ServeDebug starts an HTTP debug server on addr (e.g. ":6060")
// serving the live snapshot at /debug/metrics, expvar at /debug/vars,
// the pprof suite under /debug/pprof/, and any extra routes. It
// returns the server and its actual listen address (useful with ":0");
// the caller owns shutdown via srv.Close.
func (r *Registry) ServeDebug(addr string, extra ...Route) (*http.Server, string, error) {
	if r == nil {
		return nil, "", nil
	}
	mux := http.NewServeMux()
	for _, rt := range extra {
		if rt.Pattern != "" && rt.Handler != nil {
			mux.Handle(rt.Pattern, rt.Handler)
		}
	}
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(r.Snapshot())
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
