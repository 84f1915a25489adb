package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/obs"
)

// ConsoleState is the /debug/campaign payload: a stable-ordered JSON
// view of campaign progress assembled from the last barrier. All
// journal-derived fields are deterministic for a given barrier; the
// latency table is live wall-clock telemetry joined in from the
// metrics registry (it never enters the journal).
type ConsoleState struct {
	Campaign  ConsoleCampaign `json:"campaign"`
	Progress  ConsoleProgress `json:"progress"`
	Streams   []StreamInfo    `json:"streams,omitempty"`
	Sched     []ConsoleArm    `json:"sched,omitempty"`
	Triage    []CrashBucket   `json:"triage,omitempty"`
	Mutators  []MutatorYield  `json:"mutators,omitempty"`
	Anomalies []Event         `json:"anomalies,omitempty"`
	Latency   []LatencyRow    `json:"latency,omitempty"`
}

// ConsoleCampaign is the campaign's identity block.
type ConsoleCampaign struct {
	Seed    int64 `json:"seed"`
	Streams int   `json:"streams"`
	Total   int   `json:"total_steps"`
}

// ConsoleProgress is the campaign's position block.
type ConsoleProgress struct {
	Epoch    int `json:"epoch"`
	Done     int `json:"done"`
	Total    int `json:"total"`
	Edges    int `json:"edges"`
	Crashes  int `json:"crashes"`
	Poisoned int `json:"poisoned,omitempty"`
}

// ConsoleArm is one mutator's scheduler posterior aggregated across
// streams (sum of picks; mean reward in milli-units).
type ConsoleArm struct {
	Name      string `json:"m"`
	Picks     int64  `json:"picks"`
	MeanMilli int64  `json:"mw"`
}

// LatencyRow is one histogram series rendered as a stage-latency line.
type LatencyRow struct {
	Name   string  `json:"name"`
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
}

// Console assembles the current console state. Safe to call at any
// time; between barriers it reflects the last completed epoch.
func (r *Recorder) Console() *ConsoleState {
	if r == nil {
		return &ConsoleState{}
	}
	var latency []LatencyRow
	if r.cfg.Registry != nil {
		latency = LatencyRows(r.cfg.Registry.Snapshot())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := &ConsoleState{
		Campaign: ConsoleCampaign{Seed: r.cfg.Seed, Streams: r.cfg.Streams,
			Total: r.cfg.TotalSteps},
		Latency: latency,
	}
	st.Progress = ConsoleProgress{Epoch: r.last.Epoch, Done: r.last.Done,
		Total: r.last.Total, Edges: r.last.Edges}
	for _, si := range r.last.Streams {
		st.Progress.Crashes += si.Crashes
		if si.Poisoned {
			st.Progress.Poisoned++
		}
	}
	st.Streams = append(st.Streams, r.last.Streams...)
	st.Sched = r.schedAggregateLocked(20)
	st.Triage = crashBuckets(r.rep.Crashes)
	for _, y := range r.rep.yields {
		st.Mutators = append(st.Mutators, *y)
	}
	sort.Slice(st.Mutators, func(i, j int) bool {
		a, b := st.Mutators[i], st.Mutators[j]
		if a.Crash != b.Crash {
			return a.Crash > b.Crash
		}
		if a.Cov != b.Cov {
			return a.Cov > b.Cov
		}
		return a.Name < b.Name
	})
	if len(st.Mutators) > 20 {
		st.Mutators = st.Mutators[:20]
	}
	st.Anomalies = append(st.Anomalies, r.rep.anomalies...)
	return st
}

// crashBuckets groups crash rows into one triage bucket per signature
// (its first row names it), most hits first.
func crashBuckets(rows []CrashRow) []CrashBucket {
	var out []CrashBucket
	at := map[string]int{}
	for _, c := range rows {
		if c.Signature == "" {
			continue
		}
		i, seen := at[c.Signature]
		if !seen {
			i = len(out)
			at[c.Signature] = i
			out = append(out, CrashBucket{Signature: c.Signature, Component: c.Component,
				Class: c.Class, Via: c.Via, FirstEpoch: c.Epoch, FirstStream: c.Stream,
				FirstTick: c.Tick})
		}
		out[i].Hits++
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// schedAggregateLocked folds every stream's posterior (from the last
// barrier) into per-mutator totals, top-k by mean reward. Callers hold
// r.mu.
func (r *Recorder) schedAggregateLocked(k int) []ConsoleArm {
	names := r.cfg.ArmNames
	if len(names) == 0 {
		return nil
	}
	picks := make([]int64, len(names))
	rewards := make([]float64, len(names))
	seen := false
	for _, si := range r.last.Streams {
		st := si.Sched
		if st == nil || len(st.Picks) != len(names) {
			continue
		}
		for i := range names {
			picks[i] += st.Picks[i]
			rewards[i] += st.Rewards[i]
		}
		seen = true
	}
	if !seen {
		return nil
	}
	arms := topArms(picks, rewards, k)
	out := make([]ConsoleArm, 0, len(arms))
	for _, i := range arms {
		out = append(out, ConsoleArm{Name: names[i], Picks: picks[i],
			MeanMilli: int64(1000 * rewards[i] / float64(picks[i]))})
	}
	return out
}

// LatencyRows renders every histogram series of a metrics snapshot as
// stage-latency lines (milliseconds; quantiles are bucket upper
// bounds). Sorted by name, so output order is stable.
func LatencyRows(snap *obs.Snapshot) []LatencyRow {
	if snap == nil {
		return nil
	}
	var rows []LatencyRow
	for _, fam := range snap.Hists {
		for _, ser := range fam.Series {
			if ser.Count == 0 {
				continue
			}
			name := fam.Name
			if len(ser.LabelValues) > 0 {
				name += "{" + strings.Join(ser.LabelValues, ",") + "}"
			}
			rows = append(rows, LatencyRow{
				Name:   name,
				Count:  ser.Count,
				MeanMs: 1000 * ser.Sum / float64(ser.Count),
				P50Ms:  1000 * histQuantile(fam.Buckets, ser.Counts, ser.Count, 0.50),
				P95Ms:  1000 * histQuantile(fam.Buckets, ser.Counts, ser.Count, 0.95),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// histQuantile returns the upper bound of the bucket containing the
// q-quantile observation (the +Inf bucket reports the largest finite
// bound — an underestimate, but bounded).
func histQuantile(buckets []float64, counts []int64, total int64, q float64) float64 {
	if total <= 0 || len(counts) == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(buckets) {
				return buckets[i]
			}
			break
		}
	}
	if len(buckets) == 0 {
		return 0
	}
	return buckets[len(buckets)-1]
}

// Routes returns the console endpoints to mount on the obs debug
// server: /debug/campaign (JSON snapshot) and /debug/campaign/stream
// (SSE journal feed). Nil recorder → no routes.
func Routes(r *Recorder) []obs.Route {
	if r == nil {
		return nil
	}
	return []obs.Route{
		{Pattern: "/debug/campaign", Handler: http.HandlerFunc(r.handleConsole)},
		{Pattern: "/debug/campaign/stream", Handler: http.HandlerFunc(r.handleSSE)},
	}
}

func (r *Recorder) handleConsole(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(r.Console())
}

// Subscribe attaches a live journal tap: every appended event's JSON
// line is sent (non-blocking; slow subscribers drop events, counted in
// flight_sse_dropped_total). Call cancel to detach.
func (r *Recorder) Subscribe() (<-chan []byte, func()) {
	ch := make(chan []byte, 1024)
	if r == nil {
		close(ch)
		return ch, func() {}
	}
	r.mu.Lock()
	r.subs[ch] = true
	r.mClients.Set(int64(len(r.subs)))
	r.mu.Unlock()
	cancel := func() {
		r.mu.Lock()
		if r.subs[ch] {
			delete(r.subs, ch)
			r.mClients.Set(int64(len(r.subs)))
		}
		r.mu.Unlock()
	}
	return ch, cancel
}

// handleSSE streams journal events as Server-Sent Events, reusing the
// journal encoder: each `data:` payload is exactly one journal line.
func (r *Recorder) handleSSE(w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "flight: streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel := r.Subscribe()
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, ": flight journal stream\n\n")
	flusher.Flush()
	for {
		select {
		case <-req.Context().Done():
			return
		case line, open := <-ch:
			if !open {
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", line)
			flusher.Flush()
		}
	}
}
