package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// WatchdogConfig tunes the anomaly detectors. Every detector is a
// deterministic function of the event stream — it counts epochs, ticks,
// and edges, never wall time — so detections land at the same journal
// position in every equivalent run. Detectors raise
// flight_anomalies_total{kind} and an "anomaly" journal event; they
// never kill the run. Their thresholds are the constants below.
type WatchdogConfig struct {
	// Disable turns every watchdog off.
	Disable bool
	// BaselineEdgesPer1k is the committed BENCH_sched.json throughput
	// baseline (edges per 1000 ticks); 0 disables the regression
	// watchdog (kind "throughput_regression"; fires once).
	BaselineEdgesPer1k float64
}

const (
	// stallEpochs flags a stream whose tick count has not advanced for
	// this many consecutive epochs (kind "stalled_stream").
	stallEpochs = 4
	// plateauEpochs flags the campaign when global coverage has not
	// grown for this many consecutive epochs (kind "coverage_plateau").
	plateauEpochs = 8
	// quarantineStorm flags an epoch carrying at least this many
	// quarantine admissions (kind "quarantine_storm").
	quarantineStorm = 3
	// starvationTicks flags a stream whose adaptive posterior still has
	// never-picked arms after this many scheduler ticks — the epsilon
	// floor should have sampled everything long before (kind
	// "sched_starvation"; fires once per stream).
	starvationTicks = 2000
	// retrySpike flags an epoch that granted at least this many task
	// retries (kind "retry_spike") — the chaos harness's recoverable
	// worker panics trip this one.
	retrySpike = 4
	// regressionFraction is the fraction of baseline below which the
	// campaign's edges-per-1k-ticks counts as a regression.
	regressionFraction = 0.5
	// regressionMinTicks delays the regression judgment until the
	// campaign has spent this many total ticks.
	regressionMinTicks = 2000
)

// watchdogState is the detectors' memory, all of it read from journaled
// events: the barrier being journaled, the counters carried between
// barriers, and the fired-once latches, which only an anomaly event sets.
type watchdogState struct {
	barrier     []Event // this barrier's stream events, in journal order
	quarantines int     // this barrier's quarantine events

	lastTicks map[int]int
	stallFor  map[int]int
	stalled   map[int]bool
	starved   map[int]bool

	sawEdges     bool
	lastEdges    int
	plateauFor   int
	plateauFired bool

	regressionFired bool
}

func (w *watchdogState) init() {
	w.lastTicks = map[int]int{}
	w.stallFor = map[int]int{}
	w.stalled = map[int]bool{}
	w.starved = map[int]bool{}
}

// watchLocked is the watchdogs' part of the fold. A barrier's stream and
// quarantine events are gathered until its epoch event, which runs the
// detectors; an anomaly event sets its detector's latch. Callers hold
// r.mu.
func (r *Recorder) watchLocked(ev Event, emit bool) {
	if r.cfg.Watchdogs.Disable {
		return
	}
	wd := &r.wd
	switch ev.Kind {
	case "stream":
		wd.barrier = append(wd.barrier, ev)
	case "quarantine":
		wd.quarantines++
	case "anomaly":
		switch evStr(ev.Data, "watchdog") {
		case "stalled_stream":
			wd.stalled[ev.Stream] = true
		case "coverage_plateau":
			wd.plateauFired = true
		case "sched_starvation":
			wd.starved[ev.Stream] = true
		case "throughput_regression":
			wd.regressionFired = true
		}
	case "epoch":
		r.detectLocked(ev.Epoch, evInt(ev.Data, "edges"), evInt(ev.Data, "retries"), emit)
		wd.barrier, wd.quarantines = wd.barrier[:0], 0
	}
}

// detectLocked runs every detector against the barrier just journaled.
// Detection order is fixed (stall by stream, plateau, storm, starvation
// by stream, retry spike, regression) so anomaly events land at a
// deterministic journal position. Without emit the detectors only keep
// their counters. Starvation reads the posteriors in r.last, which only
// a live barrier has; its latch is its only memory. Callers hold r.mu.
func (r *Recorder) detectLocked(epoch, edges, retries int, emit bool) {
	wd := &r.wd
	fire := func(stream int, kind string, data map[string]any) {
		if emit {
			r.anomalyLocked(epoch, stream, kind, data)
		}
	}

	totalTicks := 0
	for _, ev := range wd.barrier {
		s, ticks := ev.Stream, ev.Tick
		totalTicks += ticks
		if evBool(ev.Data, "poisoned") {
			// A poisoned stream is already reported by the engine; its
			// frozen ticks are not a stall.
			delete(wd.stallFor, s)
			continue
		}
		if last, seen := wd.lastTicks[s]; seen && ticks == last {
			wd.stallFor[s]++
		} else {
			wd.stallFor[s] = 0
			wd.stalled[s] = false
		}
		wd.lastTicks[s] = ticks
		if wd.stallFor[s] >= stallEpochs && !wd.stalled[s] {
			fire(s, "stalled_stream", map[string]any{"epochs": wd.stallFor[s], "ticks": ticks})
		}
	}

	if wd.sawEdges && edges == wd.lastEdges {
		wd.plateauFor++
	} else {
		wd.plateauFor = 0
		wd.plateauFired = false
	}
	wd.sawEdges = true
	wd.lastEdges = edges
	if wd.plateauFor >= plateauEpochs && !wd.plateauFired {
		fire(-1, "coverage_plateau", map[string]any{
			"epochs": wd.plateauFor, "edges": edges,
		})
	}

	if wd.quarantines >= quarantineStorm {
		fire(-1, "quarantine_storm", map[string]any{"count": wd.quarantines})
	}

	for _, si := range r.last.Streams {
		st := si.Sched
		if st == nil || len(st.Picks) == 0 || si.Poisoned || wd.starved[si.Stream] {
			continue
		}
		if st.Ticks < starvationTicks {
			continue
		}
		zero, first := 0, -1
		for i, p := range st.Picks {
			if p == 0 {
				zero++
				if first < 0 {
					first = i
				}
			}
		}
		if zero == 0 {
			continue
		}
		data := map[string]any{"arms": zero, "ticks": st.Ticks}
		if first >= 0 && first < len(r.cfg.ArmNames) {
			data["first"] = r.cfg.ArmNames[first]
		}
		fire(si.Stream, "sched_starvation", data)
	}

	if retries >= retrySpike {
		fire(-1, "retry_spike", map[string]any{"count": retries})
	}

	base := r.cfg.Watchdogs.BaselineEdgesPer1k
	if base > 0 && !wd.regressionFired && totalTicks >= regressionMinTicks {
		rate := 1000 * float64(edges) / float64(totalTicks)
		if rate < regressionFraction*base {
			fire(-1, "throughput_regression", map[string]any{
				"edges_per_1k":    int(math.Round(rate)),
				"baseline_per_1k": int(math.Round(base)),
				"floor_milli":     int(math.Round(1000 * regressionFraction)),
			})
		}
	}
}

// RestoreWatchdogs replays a journal prefix (the repaired journal a
// resumed campaign continues appending to) through the recorder's fold,
// with emission off. A fresh Recorder starts its consecutive-epoch
// counters and fired-once latches at zero, so without this a restart
// would shift every later anomaly to a restart-relative journal position
// (or re-fire latched ones) and the continued journal would diverge from
// an uninterrupted run's. The replay also folds the prefix into the
// running report, so the console and Report cover the whole campaign.
// OnAnomaly does not fire: every detection inside the prefix is already
// journaled.
//
// Safe on a nil recorder. The prefix is read as ReadJournal reads it, up
// to its first malformed line: the caller has already repaired the
// journal to a valid prefix, and nothing valid follows a torn line.
func (r *Recorder) RestoreWatchdogs(journal []byte) {
	if r == nil {
		return
	}
	events, _ := ReadJournal(bytes.NewReader(journal))
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range events {
		r.foldLocked(ev, false)
	}
}

// anomalyLocked records one detection: journal event (whose fold sets
// the detector's latch), flight_anomalies_total{kind} and the OnAnomaly
// hook. Callers hold r.mu.
func (r *Recorder) anomalyLocked(epoch, stream int, kind string, data map[string]any) {
	data["watchdog"] = kind
	ev := Event{Epoch: epoch, Stream: stream, Kind: "anomaly", Data: data}
	r.appendLocked(ev)
	r.mAnoms.With(kind).Inc()
	if r.cfg.OnAnomaly != nil {
		r.cfg.OnAnomaly(ev)
	}
}

// SetBaseline arms the throughput-regression watchdog with a
// BenchBaseline value once the campaign's scheduling policy is known
// (a resumed campaign takes it from its snapshot). Call it before the
// first barrier.
func (r *Recorder) SetBaseline(edgesPer1k float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cfg.Watchdogs.BaselineEdgesPer1k = edgesPer1k
}

// BenchBaseline extracts the committed throughput baseline
// (edges per 1000 ticks) for a scheduler policy from a
// BENCH_sched.json file, preferring the cache-enabled variant of the
// policy, then the bare one.
func BenchBaseline(path, schedKind string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var bench struct {
		Variants []struct {
			Name       string  `json:"name"`
			Sched      string  `json:"sched"`
			EdgesPer1k float64 `json:"edges_per_1k_ticks"`
		} `json:"variants"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return 0, fmt.Errorf("flight: parse baseline %s: %w", path, err)
	}
	if schedKind == "" {
		schedKind = "uniform"
	}
	best := -1.0
	for _, v := range bench.Variants {
		if v.Name == schedKind+"+cache" {
			return v.EdgesPer1k, nil
		}
		if v.Sched == schedKind && v.EdgesPer1k > best {
			best = v.EdgesPer1k
		}
	}
	if best > 0 {
		return best, nil
	}
	return 0, fmt.Errorf("flight: baseline %s has no %q variant", path, schedKind)
}
