package engine

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/reduce"
)

// TriagedBug is one deduplicated crash with its earliest witness and,
// when reduction succeeded, a minimized reproducer.
type TriagedBug struct {
	Rank      int                     `json:"rank"`
	Signature string                  `json:"signature"`
	Report    compilersim.CrashReport `json:"report"`
	// FirstTick is the earliest per-stream tick the crash appeared at;
	// Stream is the stream that holds that discovery.
	FirstTick int `json:"first_tick"`
	Stream    int `json:"stream"`
	// Hits counts how many streams found the signature independently —
	// a proxy for how easy the bug is to trigger.
	Hits int    `json:"hits"`
	Via  string `json:"via"`
	// Witness is the original crashing program.
	Witness string `json:"witness"`
	// Minimized is the reduced witness ("" when no fixed option set
	// reproduced the crash, e.g. it needed sampled pass-disabling
	// flags). ReduceOptLevel is the -O level the oracle reproduced at
	// (-1 when reduction was skipped); ReductionSteps counts oracle
	// invocations spent.
	Minimized      string `json:"minimized,omitempty"`
	ReduceOptLevel int    `json:"reduce_opt_level"`
	ReductionSteps int    `json:"reduction_steps"`
}

// TriageReport ranks a campaign's unique crashes.
type TriageReport struct {
	Compiler string        `json:"compiler"`
	Streams  int           `json:"streams"`
	Bugs     []*TriagedBug `json:"bugs"`
}

// TriageConfig tunes the pipeline.
type TriageConfig struct {
	// Reduce enables automatic witness minimization via internal/reduce.
	Reduce bool
	// ReduceCfg bounds each reduction (zero value → reduce.DefaultConfig).
	ReduceCfg reduce.Config
	// Registry receives triage telemetry (triage_reduced_total, spans).
	Registry *obs.Registry
}

// Triage buckets every stream's crashes by signature (earliest
// discovery wins; ties go to the lower stream), ranks them — deeper
// component first, then earlier discovery — and optionally minimizes
// each witness. comp must be the compiler the campaign fuzzed, since
// reduction replays candidates against it.
func Triage(workers []Worker, comp *compilersim.Compiler, tcfg TriageConfig) *TriageReport {
	sp := tcfg.Registry.Span("engine_triage")
	rep := &TriageReport{Streams: len(workers)}
	if comp != nil {
		rep.Compiler = fmt.Sprintf("%s-%d", comp.Name, comp.Version)
	}
	byStream := map[string]*TriagedBug{}
	for s, w := range workers {
		for sig, ci := range w.Stats().Crashes {
			b, ok := byStream[sig]
			if !ok {
				byStream[sig] = &TriagedBug{
					Signature:      sig,
					Report:         ci.Report,
					FirstTick:      ci.FirstTick,
					Stream:         s,
					Hits:           1,
					Via:            ci.Via,
					Witness:        ci.Input,
					ReduceOptLevel: -1,
				}
				continue
			}
			b.Hits++
			if ci.FirstTick < b.FirstTick {
				b.Report, b.FirstTick, b.Stream = ci.Report, ci.FirstTick, s
				b.Via, b.Witness = ci.Via, ci.Input
			}
		}
	}
	for _, b := range byStream {
		rep.Bugs = append(rep.Bugs, b)
	}
	sort.Slice(rep.Bugs, func(i, j int) bool {
		a, b := rep.Bugs[i], rep.Bugs[j]
		if a.Report.Component != b.Report.Component {
			return a.Report.Component > b.Report.Component // deeper first
		}
		if a.FirstTick != b.FirstTick {
			return a.FirstTick < b.FirstTick
		}
		return a.Signature < b.Signature
	})
	for i, b := range rep.Bugs {
		b.Rank = i + 1
	}
	if tcfg.Reduce && comp != nil {
		rcfg := tcfg.ReduceCfg
		if rcfg == (reduce.Config{}) {
			rcfg = reduce.DefaultConfig()
		}
		reduced := tcfg.Registry.Counter("triage_reduced_total").With()
		for _, b := range rep.Bugs {
			minimizeBug(b, comp, rcfg, reduced)
		}
	}
	sp.End()
	return rep
}

// minimizeBug reduces one witness. Crashes are found under randomly
// sampled compiler options which the campaign does not record, so the
// oracle probes the fixed -O levels most likely to reproduce (2, 3, 1,
// 0, no passes disabled) and reduces under the first that does.
func minimizeBug(b *TriagedBug, comp *compilersim.Compiler,
	rcfg reduce.Config, reduced *obs.Counter) {
	for _, lvl := range [...]int{2, 3, 1, 0} {
		oracle := reduce.CrashOracle(comp, compilersim.Options{OptLevel: lvl}, b.Signature)
		if !oracle(b.Witness) {
			continue
		}
		res := reduce.Reduce(b.Witness, oracle, rcfg)
		b.Minimized = res.Output
		b.ReduceOptLevel = lvl
		b.ReductionSteps = res.Tried
		reduced.Inc()
		return
	}
}

// Triage runs the pipeline over the campaign's streams.
func (c *Campaign) Triage(comp *compilersim.Compiler, tcfg TriageConfig) *TriageReport {
	if tcfg.Registry == nil {
		tcfg.Registry = c.reg
	}
	return Triage(c.workers, comp, tcfg)
}

// Render formats the report as a ranked text table.
func (r *TriageReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Triage: %d unique bugs", len(r.Bugs))
	if r.Compiler != "" {
		fmt.Fprintf(&sb, " in %s", r.Compiler)
	}
	fmt.Fprintf(&sb, " across %d streams\n", r.Streams)
	if len(r.Bugs) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%4s  %-9s  %-18s  %9s  %4s  %-24s  %s\n",
		"rank", "component", "kind", "tick", "hits", "via", "witness")
	for _, b := range r.Bugs {
		wit := fmt.Sprintf("%dB", len(b.Witness))
		if b.Minimized != "" {
			wit = fmt.Sprintf("%dB -> %dB (%d oracle calls at -O%d)",
				len(b.Witness), len(b.Minimized), b.ReductionSteps, b.ReduceOptLevel)
		}
		via := b.Via
		if len(via) > 24 {
			via = via[:21] + "..."
		}
		fmt.Fprintf(&sb, "%4d  %-9s  %-18s  %9d  %4d  %-24s  %s\n",
			b.Rank, b.Report.Component, b.Report.Kind, b.FirstTick, b.Hits, via, wit)
	}
	return sb.String()
}

// WriteJSON writes the report with durable.Write.
func (r *TriageReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return durable.Write(path, append(data, '\n'), false)
}
