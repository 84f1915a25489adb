package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// schedBenchPool is deliberately tiny: a small corpus makes the fuzzers
// re-derive identical mutants often, which is exactly the duplication
// the mutant cache exists to absorb (a production-sized corpus dilutes
// the effect without changing the mechanism).
const schedBenchPool = 12

// SchedBenchVariant is one cell of the scheduling × caching ablation.
type SchedBenchVariant struct {
	Name     string `json:"name"`
	Sched    string `json:"sched"`
	CacheCap int    `json:"cache_cap"`

	Ticks           int     `json:"ticks"`
	Edges           int     `json:"edges"`
	Crashes         int     `json:"crashes"`
	EdgesPer1kTicks float64 `json:"edges_per_1k_ticks"`
	// Compiles is the number of full pipeline executions: Ticks minus
	// the compilations answered from the mutant cache.
	Compiles       int     `json:"compiles"`
	CacheHits      int64   `json:"cache_hits"`
	ParseCacheHits int64   `json:"parse_cache_hits"`
	Seconds        float64 `json:"seconds"`
	EdgesPerSec    float64 `json:"edges_per_sec"`
}

// SchedBenchResult is the full ablation: the BENCH_sched.json payload.
type SchedBenchResult struct {
	Seed     int64               `json:"seed"`
	Steps    int                 `json:"steps"`
	Streams  int                 `json:"streams"`
	Pool     int                 `json:"pool"`
	Variants []SchedBenchVariant `json:"variants"`
}

// RunSchedBench measures the adaptive scheduler and the mutant cache
// against the uniform/uncached baseline: four macro campaigns on the
// engine, identical seed and budget, varying only the policy and the
// cache. Scheduling changes what gets compiled (edges per tick);
// caching changes how much compiling costs (pipeline executions per
// tick) without changing any result.
func RunSchedBench(cfg Config) *SchedBenchResult {
	pool := seeds.Generate(schedBenchPool, cfg.Seed)
	res := &SchedBenchResult{
		Seed:    cfg.Seed,
		Steps:   cfg.SchedBenchSteps,
		Streams: 4,
		Pool:    schedBenchPool,
	}
	variants := []struct {
		kind     string
		cacheCap int
	}{
		{"uniform", 0},
		{"uniform", 4096},
		{"adaptive", 0},
		{"adaptive", 4096},
	}
	for _, v := range variants {
		name := v.kind
		if v.cacheCap > 0 {
			name += "+cache"
		}
		comp := compilersim.New("gcc", 14)
		comp.EnableMutantCache(v.cacheCap)
		// Self-guided μCFuzz streams: the paper's core fuzzer, and it
		// compiles at fixed options, so duplicate mutants actually hit
		// the cache (the macro fuzzer's random flag sampling would give
		// every duplicate a distinct cache key).
		factory := func(stream int, rng *rand.Rand, _ fuzz.CoverageSink) engine.Worker {
			mf := fuzz.NewMuCFuzz(fmt.Sprintf("bench-%s-%d", name, stream),
				comp, muast.All(), pool, rng)
			s, err := sched.New(v.kind, len(muast.All()))
			if err != nil {
				panic(err)
			}
			mf.Sched = s
			return mf
		}
		ecfg := engine.Config{
			Streams:    res.Streams,
			Workers:    cfg.EngineWorkers,
			TotalSteps: cfg.SchedBenchSteps,
			Seed:       cfg.Seed,
			Registry:   cfg.Obs,
		}
		parseHits0, _ := cast.ParseCacheStats()
		start := time.Now()
		c := engine.New(ecfg, factory)
		if err := c.Run(context.Background()); err != nil {
			panic(err) // no checkpointing or cancellation in the bench
		}
		secs := time.Since(start).Seconds()
		parseHits1, _ := cast.ParseCacheStats()

		st := c.MergedStats()
		hits, _ := comp.CacheStats()
		row := SchedBenchVariant{
			Name:           name,
			Sched:          v.kind,
			CacheCap:       v.cacheCap,
			Ticks:          st.Ticks,
			Edges:          st.Coverage.Count(),
			Crashes:        st.UniqueCrashes(),
			Compiles:       st.Ticks - int(hits),
			CacheHits:      hits,
			ParseCacheHits: parseHits1 - parseHits0,
			Seconds:        secs,
		}
		if st.Ticks > 0 {
			row.EdgesPer1kTicks = 1000 * float64(row.Edges) / float64(st.Ticks)
		}
		if secs > 0 {
			row.EdgesPerSec = float64(row.Edges) / secs
		}
		res.Variants = append(res.Variants, row)
	}
	return res
}

// Render prints the ablation as a table.
func (r *SchedBenchResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scheduling/cache ablation: %d steps x %d streams, seed %d, %d-program pool\n",
		r.Steps, r.Streams, r.Seed, r.Pool)
	fmt.Fprintf(&sb, "  %-16s %8s %8s %8s %12s %10s %10s %8s\n",
		"variant", "ticks", "edges", "crashes", "edges/1kT", "compiles", "hits", "secs")
	for _, v := range r.Variants {
		fmt.Fprintf(&sb, "  %-16s %8d %8d %8d %12.1f %10d %10d %8.2f\n",
			v.Name, v.Ticks, v.Edges, v.Crashes, v.EdgesPer1kTicks,
			v.Compiles, v.CacheHits, v.Seconds)
	}
	return sb.String()
}

// WriteJSON writes the ablation result (the BENCH_sched.json artifact)
// with durable.Write: a killed run leaves no truncated baseline.
func (r *SchedBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return durable.Write(path, append(data, '\n'), false)
}
