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

// watchdogState is the detectors' memory between barriers.
type watchdogState struct {
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

// watchdogsLocked runs every detector against one barrier summary.
// Detection order is fixed (stall by stream, plateau, storm,
// starvation by stream, retry spike, regression) so anomaly events
// land at a deterministic journal position. Callers hold r.mu.
func (r *Recorder) watchdogsLocked(info EpochInfo, quarantines int) {
	cfg := r.cfg.Watchdogs
	if cfg.Disable {
		return
	}
	wd := &r.wd

	totalTicks := 0
	for _, si := range info.Streams {
		totalTicks += si.Ticks
	}

	for _, si := range info.Streams {
		if si.Poisoned {
			// A poisoned stream is already reported by the engine; its
			// frozen ticks are not a stall.
			delete(wd.stallFor, si.Stream)
			continue
		}
		if last, seen := wd.lastTicks[si.Stream]; seen && si.Ticks == last {
			wd.stallFor[si.Stream]++
		} else {
			wd.stallFor[si.Stream] = 0
			wd.stalled[si.Stream] = false
		}
		wd.lastTicks[si.Stream] = si.Ticks
		if wd.stallFor[si.Stream] >= stallEpochs && !wd.stalled[si.Stream] {
			wd.stalled[si.Stream] = true
			r.anomalyLocked(info.Epoch, si.Stream, "stalled_stream", map[string]any{
				"epochs": wd.stallFor[si.Stream], "ticks": si.Ticks,
			})
		}
	}

	if wd.sawEdges && info.Edges == wd.lastEdges {
		wd.plateauFor++
	} else {
		wd.plateauFor = 0
		wd.plateauFired = false
	}
	wd.sawEdges = true
	wd.lastEdges = info.Edges
	if wd.plateauFor >= plateauEpochs && !wd.plateauFired {
		wd.plateauFired = true
		r.anomalyLocked(info.Epoch, -1, "coverage_plateau", map[string]any{
			"epochs": wd.plateauFor, "edges": info.Edges,
		})
	}

	if quarantines >= quarantineStorm {
		r.anomalyLocked(info.Epoch, -1, "quarantine_storm", map[string]any{
			"count": quarantines,
		})
	}

	for _, si := range info.Streams {
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
		wd.starved[si.Stream] = true
		data := map[string]any{"arms": zero, "ticks": st.Ticks}
		if first >= 0 && first < len(r.cfg.ArmNames) {
			data["first"] = r.cfg.ArmNames[first]
		}
		r.anomalyLocked(info.Epoch, si.Stream, "sched_starvation", data)
	}

	if info.Retries >= retrySpike {
		r.anomalyLocked(info.Epoch, -1, "retry_spike", map[string]any{
			"count": info.Retries,
		})
	}

	if cfg.BaselineEdgesPer1k > 0 && !wd.regressionFired &&
		totalTicks >= regressionMinTicks {
		rate := 1000 * float64(info.Edges) / float64(totalTicks)
		if rate < regressionFraction*cfg.BaselineEdgesPer1k {
			wd.regressionFired = true
			r.anomalyLocked(info.Epoch, -1, "throughput_regression", map[string]any{
				"edges_per_1k":    int(math.Round(rate)),
				"baseline_per_1k": int(math.Round(cfg.BaselineEdgesPer1k)),
				"floor_milli":     int(math.Round(1000 * regressionFraction)),
			})
		}
	}
}

// RestoreWatchdogs rebuilds the detectors' inter-barrier memory by
// replaying a journal prefix — the repaired journal a resumed campaign
// continues appending to. A fresh Recorder starts its
// consecutive-epoch counters and fired-once latches at zero, so
// without this a restart would shift every later anomaly to a
// restart-relative journal position (or re-fire latched ones) and the
// continued journal would diverge from an uninterrupted run's. The
// replay mirrors watchdogsLocked's bookkeeping exactly but emits
// nothing: every detection inside the prefix is already journaled.
//
// Safe on a nil recorder. Torn or foreign lines are skipped — the
// caller has already repaired the journal to a valid prefix.
func (r *Recorder) RestoreWatchdogs(journal []byte) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	wd := &r.wd
	for _, line := range bytes.Split(journal, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			continue
		}
		switch ev.Kind {
		case "stream":
			s := ev.Stream
			if ev.Data["poisoned"] == true {
				delete(wd.stallFor, s)
				continue
			}
			if last, seen := wd.lastTicks[s]; seen && ev.Tick == last {
				wd.stallFor[s]++
			} else {
				wd.stallFor[s] = 0
				wd.stalled[s] = false
			}
			wd.lastTicks[s] = ev.Tick
			if wd.stallFor[s] >= stallEpochs {
				wd.stalled[s] = true
			}
		case "epoch":
			edges := 0
			if v, ok := ev.Data["edges"].(float64); ok {
				edges = int(v)
			}
			if wd.sawEdges && edges == wd.lastEdges {
				wd.plateauFor++
			} else {
				wd.plateauFor = 0
				wd.plateauFired = false
			}
			wd.sawEdges = true
			wd.lastEdges = edges
			if wd.plateauFor >= plateauEpochs {
				wd.plateauFired = true
			}
		case "anomaly":
			switch ev.Data["watchdog"] {
			case "sched_starvation":
				wd.starved[ev.Stream] = true
			case "throughput_regression":
				wd.regressionFired = true
			}
		}
	}
}

// anomalyLocked records one detection: journal event, anomaly log, and
// flight_anomalies_total{kind}. Callers hold r.mu.
func (r *Recorder) anomalyLocked(epoch, stream int, kind string, data map[string]any) {
	data["watchdog"] = kind
	ev := Event{Epoch: epoch, Stream: stream, Kind: "anomaly", Data: data}
	r.anomalies = append(r.anomalies, ev)
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
