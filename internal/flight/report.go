package flight

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/obs"
)

// ReadJournal parses a JSONL flight journal back into events. Blank
// lines are skipped; a malformed line is an error (journals are
// machine-written, so damage means truncation or corruption worth
// surfacing), returned with the events before it.
func ReadJournal(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	var out []Event
	n := 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		ev, err := DecodeLine(line)
		if err != nil {
			return out, fmt.Errorf("flight: journal line %d: %w", n, err)
		}
		out = append(out, ev)
	}
	return out, sc.Err()
}

// Report is the replayed, aggregated view of one campaign journal.
type Report struct {
	Seed    int64 `json:"seed"`
	Streams int   `json:"streams"`
	Total   int   `json:"total_steps"`

	Epochs      []EpochRow     `json:"epochs,omitempty"`
	Mutators    []MutatorYield `json:"mutators,omitempty"`
	Crashes     []CrashRow     `json:"crashes,omitempty"`
	Anomalies   []AnomalyRow   `json:"anomalies,omitempty"`
	Checkpoints int            `json:"checkpoints"`
	Quarantines int            `json:"quarantines"`
	Paroles     int            `json:"paroles"`

	Ended        bool `json:"ended"`
	FinalDone    int  `json:"final_done"`
	FinalEdges   int  `json:"final_edges"`
	FinalCrashes int  `json:"final_crashes"`

	// What fold keeps for Mutators and Anomalies; sorted lists them.
	yields    map[string]*MutatorYield
	anomalies []Event
}

// EpochRow is one barrier in the timeline.
type EpochRow struct {
	Epoch    int   `json:"epoch"`
	Done     int   `json:"done"`
	Edges    int   `json:"edges"`
	Crashes  int   `json:"crashes"`
	Retries  int   `json:"retries,omitempty"`
	Poisoned []int `json:"poisoned,omitempty"`
}

// CrashRow is one per-stream first discovery.
type CrashRow struct {
	Epoch     int    `json:"epoch"`
	Stream    int    `json:"stream"`
	Tick      int    `json:"tick"`
	Signature string `json:"sig"`
	Component string `json:"component,omitempty"`
	Class     string `json:"class,omitempty"`
	Via       string `json:"via,omitempty"`
}

// AnomalyRow is one watchdog detection.
type AnomalyRow struct {
	Epoch    int    `json:"epoch"`
	Stream   int    `json:"stream"`
	Watchdog string `json:"watchdog"`
	Detail   string `json:"detail,omitempty"`
}

// evInt reads a numeric Data field, tolerating both the in-memory int
// and the JSON-round-tripped float64 representation.
func evInt(d map[string]any, key string) int {
	switch v := d[key].(type) {
	case int:
		return v
	case int64:
		return int(v)
	case float64:
		return int(v)
	}
	return 0
}

func evStr(d map[string]any, key string) string {
	s, _ := d[key].(string)
	return s
}

func evBool(d map[string]any, key string) bool {
	b, _ := d[key].(bool)
	return b
}

func evInts(d map[string]any, key string) []int {
	switch v := d[key].(type) {
	case []int:
		return append([]int(nil), v...)
	case []any:
		out := make([]int, 0, len(v))
		for _, e := range v {
			if f, ok := e.(float64); ok {
				out = append(out, int(f))
			}
		}
		return out
	}
	return nil
}

// BuildReport replays a journal into a Report: every event folded in
// journal order, then the lists sorted. It accepts partial journals — an
// interrupted campaign simply has Ended false.
func BuildReport(events []Event) *Report {
	rep := &Report{}
	for _, ev := range events {
		rep.fold(ev)
	}
	return rep.sorted()
}

// fold adds one journal event to the report.
func (rep *Report) fold(ev Event) {
	switch ev.Kind {
	case "campaign":
		rep.Seed = int64(evInt(ev.Data, "seed"))
		rep.Streams = evInt(ev.Data, "streams")
		rep.Total = evInt(ev.Data, "total")
	case "epoch":
		rep.Epochs = append(rep.Epochs, EpochRow{
			Epoch:    ev.Epoch,
			Done:     evInt(ev.Data, "done"),
			Edges:    evInt(ev.Data, "edges"),
			Crashes:  evInt(ev.Data, "crashes"),
			Retries:  evInt(ev.Data, "retries"),
			Poisoned: evInts(ev.Data, "poisoned"),
		})
	case "reward":
		name := evStr(ev.Data, "m")
		if name == "" {
			return
		}
		y := rep.yields[name]
		if y == nil {
			if rep.yields == nil {
				rep.yields = map[string]*MutatorYield{}
			}
			y = &MutatorYield{Name: name}
			rep.yields[name] = y
		}
		y.Rewards++
		if evBool(ev.Data, "cov") {
			y.Cov++
		}
		if evBool(ev.Data, "crash") {
			y.Crash++
		}
	case "crash":
		rep.Crashes = append(rep.Crashes, CrashRow{
			Epoch:     ev.Epoch,
			Stream:    ev.Stream,
			Tick:      ev.Tick,
			Signature: evStr(ev.Data, "sig"),
			Component: evStr(ev.Data, "component"),
			Class:     evStr(ev.Data, "class"),
			Via:       evStr(ev.Data, "via"),
		})
	case "anomaly":
		rep.anomalies = append(rep.anomalies, ev)
	case "checkpoint":
		rep.Checkpoints++
	case "quarantine":
		rep.Quarantines++
	case "parole":
		rep.Paroles++
	case "end":
		rep.Ended = true
		rep.FinalDone = evInt(ev.Data, "done")
		rep.FinalEdges = evInt(ev.Data, "edges")
		rep.FinalCrashes = evInt(ev.Data, "crashes")
	}
}

// sorted returns the report as its readers see it, sharing no slice with
// rep: mutators ranked by yield, anomalies as rows.
func (rep *Report) sorted() *Report {
	out := *rep
	out.yields, out.anomalies = nil, nil
	out.Epochs = slices.Clone(rep.Epochs)
	out.Crashes = slices.Clone(rep.Crashes)
	for _, y := range rep.yields {
		out.Mutators = append(out.Mutators, *y)
	}
	sort.Slice(out.Mutators, func(i, j int) bool {
		a, b := out.Mutators[i], out.Mutators[j]
		if a.Crash != b.Crash {
			return a.Crash > b.Crash
		}
		if a.Cov != b.Cov {
			return a.Cov > b.Cov
		}
		if a.Rewards != b.Rewards {
			return a.Rewards > b.Rewards
		}
		return a.Name < b.Name
	})
	for _, ev := range rep.anomalies {
		out.Anomalies = append(out.Anomalies, AnomalyRow{
			Epoch:    ev.Epoch,
			Stream:   ev.Stream,
			Watchdog: evStr(ev.Data, "watchdog"),
			Detail:   detailString(ev.Data),
		})
	}
	return &out
}

// detailString renders an anomaly's payload (minus the watchdog key)
// as sorted "k=v" pairs.
func detailString(d map[string]any) string {
	keys := make([]string, 0, len(d))
	for k := range d {
		if k != "watchdog" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := d[k]
		if f, ok := v.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1<<53 {
			// A replayed integer reads as float64; print it as the
			// recorder's int prints.
			v = int64(f)
		}
		parts = append(parts, fmt.Sprintf("%s=%v", k, v))
	}
	return strings.Join(parts, " ")
}

// Render formats the report as stable human-readable text: equal
// reports render to equal strings.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flight report — seed %d, %d streams, budget %d steps\n",
		r.Seed, r.Streams, r.Total)

	fmt.Fprintf(&b, "\ntimeline (%d epochs):\n", len(r.Epochs))
	if len(r.Epochs) > 0 {
		fmt.Fprintf(&b, "  %6s %8s %8s %8s %8s  %s\n",
			"epoch", "done", "edges", "crashes", "retries", "poisoned")
		rows := r.Epochs
		const maxRows = 24
		if len(rows) > maxRows {
			head, tail := rows[:maxRows/2], rows[len(rows)-maxRows/2:]
			for _, row := range head {
				b.WriteString(epochLine(row))
			}
			fmt.Fprintf(&b, "  %6s (%d epochs omitted)\n", "⋯", len(rows)-maxRows)
			rows = tail
		}
		for _, row := range rows {
			b.WriteString(epochLine(row))
		}
	}

	fmt.Fprintf(&b, "\ntop mutators by reward (%d earned rewards):\n", len(r.Mutators))
	top := r.Mutators
	if len(top) > 15 {
		top = top[:15]
	}
	for i, y := range top {
		fmt.Fprintf(&b, "  %2d. %-28s rewards=%-5d cov=%-5d crash=%d\n",
			i+1, y.Name, y.Rewards, y.Cov, y.Crash)
	}

	fmt.Fprintf(&b, "\ncrashes (%d per-stream first discoveries):\n", len(r.Crashes))
	for _, c := range r.Crashes {
		fmt.Fprintf(&b, "  epoch %-4d stream %-3d tick %-6d %s/%s via=%s sig=%.12s\n",
			c.Epoch, c.Stream, c.Tick, c.Component, c.Class, c.Via, c.Signature)
	}

	fmt.Fprintf(&b, "\nanomalies (%d):\n", len(r.Anomalies))
	for _, a := range r.Anomalies {
		where := "campaign"
		if a.Stream >= 0 {
			where = fmt.Sprintf("stream %d", a.Stream)
		}
		fmt.Fprintf(&b, "  epoch %-4d %-10s %-22s %s\n", a.Epoch, where, a.Watchdog, a.Detail)
	}

	fmt.Fprintf(&b, "\ncheckpoints=%d quarantines=%d paroles=%d\n",
		r.Checkpoints, r.Quarantines, r.Paroles)
	if r.Ended {
		fmt.Fprintf(&b, "end: done=%d edges=%d crashes=%d\n",
			r.FinalDone, r.FinalEdges, r.FinalCrashes)
	} else {
		b.WriteString("end: (no end event — campaign interrupted or journal truncated)\n")
	}
	return b.String()
}

func epochLine(row EpochRow) string {
	retries, poisoned := "-", "-"
	if row.Retries > 0 {
		retries = fmt.Sprintf("%d", row.Retries)
	}
	if len(row.Poisoned) > 0 {
		parts := make([]string, len(row.Poisoned))
		for i, s := range row.Poisoned {
			parts[i] = fmt.Sprintf("%d", s)
		}
		poisoned = strings.Join(parts, ",")
	}
	return fmt.Sprintf("  %6d %8d %8d %8d %8s  %s\n",
		row.Epoch, row.Done, row.Edges, row.Crashes, retries, poisoned)
}

// RenderLatency renders the stage-latency table from a metrics
// snapshot — the wall-clock companion the journal deliberately omits.
func RenderLatency(snap *obs.Snapshot) string {
	rows := LatencyRows(snap)
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("\nstage latency (from metrics snapshot):\n")
	fmt.Fprintf(&b, "  %-40s %10s %12s %12s %12s\n",
		"stage", "count", "mean_ms", "p50_ms", "p95_ms")
	for _, row := range rows {
		fmt.Fprintf(&b, "  %-40s %10d %12.3f %12.3f %12.3f\n",
			row.Name, row.Count, row.MeanMs, row.P50Ms, row.P95Ms)
	}
	return b.String()
}
