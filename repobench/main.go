// Command repobench runs one iteration of one repository benchmark
// workload in a fresh process and prints its measurements, output
// digest and output-check tally as one JSON object. run.py drives it:
// it builds this program, starts one process per iteration (so every
// iteration starts with a cold global parse cache) and aggregates the
// iterations into the benchmark's end-to-end and per-layer metrics.
//
//	repobench -workload macro_gcc -seed 7 -state DIR            # untraced
//	repobench -workload macro_gcc -seed 7 -state DIR -trace     # traced + replay
//	repobench -workload daemon_jobs -seed 7 -state DIR -seconds 10
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
)

// result is one iteration's report. run.py reads every field; the
// digest covers only deterministic outputs, so it must be identical
// across iterations, runs, and traced/untraced modes of one
// (workload, seed) pair.
type result struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// SetupS is the median of SetupSamples: each sample is one complete
	// set-up from workload start until the first step could run.
	SetupS       float64   `json:"setup_s"`
	SetupSamples []float64 `json:"setup_samples"`
	// WallS is the measured run after set-up (output checks excluded).
	WallS float64 `json:"wall_s"`
	// Steps is budget steps completed (engine steps for campaigns,
	// compile ticks for the μCFuzz stream, summed JobRecord.Done for
	// the daemon).
	Steps int `json:"steps"`
	Ticks int `json:"ticks"`
	// EdgesDone is the final coverage edges of every completed unit of
	// work (one campaign, or every daemon job), for edges_per_s.
	EdgesDone int `json:"edges_done"`
	// FinalEdges and UniqueCrashes are deterministic at a fixed seed:
	// the campaign's own figures, or the per-job mean over the daemon's
	// spec list.
	FinalEdges    float64 `json:"final_edges"`
	UniqueCrashes float64 `json:"unique_crashes"`
	// CrashSigs are the sorted unique crash signatures.
	CrashSigs []string `json:"crash_sigs"`
	Digest    string   `json:"digest"`
	PeakRSSMB float64  `json:"peak_rss_mb"`

	// Daemon jobs: submit-to-terminal latency of every job, in seconds.
	JobLatencies []float64 `json:"job_latencies,omitempty"`

	// Runtime figures over the measured run.
	AllocMB    float64 `json:"alloc_mb"`
	GCCPUShare float64 `json:"gc_cpu_share"`

	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Layers holds the traced run's per-layer metrics; Notes says how
	// each was measured, or why it could not be measured from outside.
	Layers map[string]float64 `json:"layers,omitempty"`
	Notes  map[string]string  `json:"notes,omitempty"`
}

// check books one output-check item.
func (r *result) check(ok bool, format string, args ...any) {
	r.Attempted++
	if ok {
		return
	}
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "macro_gcc, micro_clang or daemon_jobs")
		seed     = flag.Int64("seed", 1, "workload seed")
		state    = flag.String("state", "", "scratch directory for this iteration (daemon state, span dump)")
		seconds  = flag.Float64("seconds", 10, "daemon_jobs: how long the closed loop submits new jobs")
		trace    = flag.Bool("trace", false, "record per-layer spans and replay layer entry points")
	)
	flag.Parse()
	if *state == "" {
		fatalf("-state is required")
	}
	if err := os.MkdirAll(*state, 0o755); err != nil {
		fatalf("state dir: %v", err)
	}
	// GOMAXPROCS must equal the CPUs this process may run on (nproc),
	// not a container quota or an inherited environment override.
	runtime.GOMAXPROCS(runtime.NumCPU())

	res := &result{Workload: *workload, Seed: *seed, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var err error
	switch *workload {
	case "macro_gcc":
		err = runMacro(res, *seed, *state, *trace)
	case "micro_clang":
		err = runMicro(res, *seed, *state, *trace)
	case "daemon_jobs":
		err = runDaemon(res, *seed, *state, *seconds, *trace)
	default:
		fatalf("unknown workload %q", *workload)
	}
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "repobench: "+format+"\n", args...)
	os.Exit(1)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// setupRepeats is how many complete set-ups each iteration times; the
// last one is the one the run uses. Set-up is a few milliseconds, so a
// single sample is dominated by scheduling noise.
const setupRepeats = 5

// timeSetup runs build setupRepeats times, records the median, and
// returns the last build.
func timeSetup[T any](res *result, build func() T) T {
	var v T
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		v = build()
		res.SetupSamples = append(res.SetupSamples, time.Since(t0).Seconds())
	}
	res.SetupS = median(res.SetupSamples)
	return v
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// runtimeProbe captures allocation and GC CPU counters at the start of
// a measured run.
type runtimeProbe struct {
	alloc        uint64
	gcCPU, total float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// startRun collects set-up garbage, so the measured run does not pay
// for it at an arbitrary point, and captures the runtime counters.
func startRun() runtimeProbe {
	runtime.GC()
	return readRuntime()
}

func readRuntime() runtimeProbe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuSamples)
	return runtimeProbe{alloc: ms.TotalAlloc,
		gcCPU: cpuSamples[0].Value.Float64(), total: cpuSamples[1].Value.Float64()}
}

// finish records the run's allocation volume and GC CPU share since p.
func (p runtimeProbe) finish(res *result) {
	now := readRuntime()
	res.AllocMB = float64(now.alloc-p.alloc) / (1 << 20)
	if d := now.total - p.total; d > 0 {
		res.GCCPUShare = (now.gcCPU - p.gcCPU) / d
	}
}

// digestOf hashes the deterministic outputs of an iteration.
func digestOf(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkCorpus requires every corpus program to pass the front end.
func checkCorpus(res *result, label string, corpus []string) {
	for i, src := range corpus {
		_, err := cast.ParseAndCheck(src)
		res.check(err == nil, "%s corpus[%d] fails ParseAndCheck: %v", label, i, err)
	}
}
