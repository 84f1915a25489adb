package experiments

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchGateTolerance is how much throughput regression the gate
// accepts before failing: fresh edges/sec must be at least this
// fraction of the committed number. Wall-clock benches on shared
// hardware jitter, so the gate is deliberately loose — it catches
// "someone re-introduced a per-mutant parse", not scheduler noise.
const benchGateTolerance = 0.90

// GateFailure is one bench-gate violation.
type GateFailure struct {
	Check string `json:"check"`
	Want  string `json:"want"`
	Got   string `json:"got"`
}

// RunBenchGate re-runs schedbench and compares it against the committed
// BENCH_sched.json in the repo root (or wherever dir points): edges/sec
// per variant must not regress more than 10%, and ticks/edges/crashes
// must match exactly (the determinism gate rides along for free).
//
// The allocation budgets are enforced separately and unconditionally by
// TestHotLoopAllocBudget (testing.AllocsPerRun needs the testing
// harness). Returns the failures; empty means the gate passes.
func RunBenchGate(cfg Config, dir string) []GateFailure {
	var fails []GateFailure

	var committed SchedBenchResult
	if ok := loadJSON(dir+"/BENCH_sched.json", &committed, &fails); ok {
		fresh := RunSchedBench(cfg)
		for i, want := range committed.Variants {
			if i >= len(fresh.Variants) {
				fails = append(fails, GateFailure{Check: "sched:" + want.Name,
					Want: "variant present", Got: "missing"})
				continue
			}
			got := fresh.Variants[i]
			if got.Ticks != want.Ticks || got.Edges != want.Edges || got.Crashes != want.Crashes {
				fails = append(fails, GateFailure{
					Check: "sched-determinism:" + want.Name,
					Want:  fmt.Sprintf("ticks=%d edges=%d crashes=%d", want.Ticks, want.Edges, want.Crashes),
					Got:   fmt.Sprintf("ticks=%d edges=%d crashes=%d", got.Ticks, got.Edges, got.Crashes),
				})
			}
			if want.EdgesPerSec > 0 && got.EdgesPerSec < benchGateTolerance*want.EdgesPerSec {
				fails = append(fails, GateFailure{
					Check: "sched-throughput:" + want.Name,
					Want:  fmt.Sprintf(">= %.0f edges/s (90%% of committed %.0f)", benchGateTolerance*want.EdgesPerSec, want.EdgesPerSec),
					Got:   fmt.Sprintf("%.0f edges/s", got.EdgesPerSec),
				})
			}
		}
	}

	return fails
}

func loadJSON(path string, into any, fails *[]GateFailure) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		*fails = append(*fails, GateFailure{Check: "load:" + path,
			Want: "committed bench file", Got: err.Error()})
		return false
	}
	if err := json.Unmarshal(data, into); err != nil {
		*fails = append(*fails, GateFailure{Check: "parse:" + path,
			Want: "valid JSON", Got: err.Error()})
		return false
	}
	return true
}
