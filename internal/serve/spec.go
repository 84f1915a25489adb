// Package serve is the fuzzing-as-a-service layer: a multi-tenant
// campaign coordinator that runs as a daemon (cmd/mucfuzzd), accepts
// job submissions over an HTTP/JSON API, multiplexes many concurrent
// campaigns over one shared worker fleet with per-tenant fair
// scheduling (deficit round-robin over engine epochs) and quota
// enforcement, and survives restarts — even SIGKILL — by persisting a
// job ledger plus the engine's checkpoint format. On boot every
// RUNNING job resumes from its last checkpoint, and each job's final
// crashes, stats, and flight journal are byte-identical to an
// uninterrupted run.
//
// The coordinator never invents randomness or ordering of its own:
// each job is a fully isolated engine.Campaign (own compiler instance,
// seed pool, streams, RNGs), so *when* its epochs are scheduled on the
// fleet cannot perturb *what* they compute. The fleet switches jobs
// only at epoch barriers (engine.RunSlice pause-at-barrier
// preemption), which is also where checkpoints happen — so the ledger
// plus the per-job checkpoint is always a consistent cut of the whole
// service.
package serve

import (
	"errors"
	"flag"
	"fmt"
)

// JobSpecVersion guards the job schema. The single-shot CLI
// (mucfuzz -submit), the client CLI (mucfuzzctl submit), and the
// daemon all speak exactly this struct; bump on any layout change and
// reject others rather than guess.
const JobSpecVersion = 1

// JobSpec is the canonical campaign-job schema: everything that
// defines a macro campaign's identity and budget. A job's results are
// a pure function of its spec — the daemon adds no entropy — which is
// what makes `mucfuzz -macro` and a daemon-run job interchangeable.
type JobSpec struct {
	// SpecVersion must equal JobSpecVersion.
	SpecVersion int `json:"spec_version"`
	// Tenant names the submitting tenant (required; quota unit).
	Tenant string `json:"tenant"`
	// Name is an optional human label for the job.
	Name string `json:"name,omitempty"`
	// Compiler is the target profile: "gcc" or "clang".
	Compiler string `json:"compiler"`
	// MutatorSet selects the arsenal: "s", "u", or "all".
	MutatorSet string `json:"set"`
	// Seed derives the campaign's every stream RNG.
	Seed int64 `json:"seed"`
	// SeedCount is the generated seed-corpus size.
	SeedCount int `json:"seeds"`
	// Steps is the campaign budget (total compilations across streams).
	Steps int `json:"steps"`
	// Streams is the logical stream count (campaign identity).
	Streams int `json:"streams"`
	// StepsPerEpoch is the per-stream step count between barriers
	// (campaign identity; also the preemption granularity).
	StepsPerEpoch int `json:"steps_per_epoch"`
	// Sched is the mutator scheduling policy: "uniform" or "adaptive".
	Sched string `json:"sched"`
	// NoStatic disables the shift-left mutant filter (ablation).
	NoStatic bool `json:"no_static,omitempty"`
	// Reduce minimizes each triaged witness in the final report.
	Reduce bool `json:"reduce,omitempty"`
}

// specDefaults holds the value of every field a spec may leave zero,
// and Steps, which the flag binder defaults but a spec must state.
var specDefaults = JobSpec{
	Compiler: "gcc", MutatorSet: "s", Seed: 1, SeedCount: 120,
	Steps: 10000, Streams: 16, StepsPerEpoch: 32, Sched: "adaptive",
}

// Normalize fills defaults in place, so a bare spec means the same
// campaign everywhere.
func (s *JobSpec) Normalize() {
	d := specDefaults
	if s.SpecVersion == 0 {
		s.SpecVersion = JobSpecVersion
	}
	if s.Compiler == "" {
		s.Compiler = d.Compiler
	}
	if s.MutatorSet == "" {
		s.MutatorSet = d.MutatorSet
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	if s.SeedCount <= 0 {
		s.SeedCount = d.SeedCount
	}
	if s.Streams <= 0 {
		s.Streams = d.Streams
	}
	if s.StepsPerEpoch <= 0 {
		s.StepsPerEpoch = d.StepsPerEpoch
	}
	if s.Sched == "" {
		s.Sched = d.Sched
	}
}

// BindFlags registers the campaign-identity flags that mucfuzz and
// mucfuzzctl submit share — compiler, set, seed, seeds, steps,
// streams, sched, no-static, reduce — on fs, and returns the spec they
// fill once fs is parsed.
func BindFlags(fs *flag.FlagSet) *JobSpec {
	d := specDefaults
	s := &JobSpec{SpecVersion: JobSpecVersion}
	fs.StringVar(&s.Compiler, "compiler", d.Compiler, "target profile: gcc or clang")
	fs.StringVar(&s.MutatorSet, "set", d.MutatorSet, "mutator set: s (supervised), u (unsupervised), all")
	fs.Int64Var(&s.Seed, "seed", d.Seed, "campaign seed")
	fs.IntVar(&s.SeedCount, "seeds", d.SeedCount, "seed corpus size")
	fs.IntVar(&s.Steps, "steps", d.Steps, "step budget (compilations)")
	fs.IntVar(&s.Streams, "streams", d.Streams, "macro campaign: logical fuzzing streams (campaign identity)")
	fs.StringVar(&s.Sched, "sched", d.Sched, "mutator scheduling policy: uniform or adaptive (UCB bandit)")
	fs.BoolVar(&s.NoStatic, "no-static", false, "ablation: compile statically-invalid mutants instead of filtering them")
	fs.BoolVar(&s.Reduce, "reduce", false, "minimize each crashing input in the report")
	return s
}

// Validate rejects specs the daemon could not run faithfully. Call
// after Normalize.
func (s *JobSpec) Validate() error {
	if s.SpecVersion != JobSpecVersion {
		return fmt.Errorf("serve: job spec version %d, this daemon speaks %d",
			s.SpecVersion, JobSpecVersion)
	}
	if s.Tenant == "" {
		return errors.New("serve: job spec has no tenant")
	}
	if s.Steps <= 0 {
		return errors.New("serve: job spec has no step budget")
	}
	switch s.Compiler {
	case "gcc", "clang":
	default:
		return fmt.Errorf("serve: unknown compiler profile %q (want gcc or clang)", s.Compiler)
	}
	switch s.MutatorSet {
	case "s", "u", "all":
	default:
		return fmt.Errorf("serve: unknown mutator set %q (want s, u, or all)", s.MutatorSet)
	}
	switch s.Sched {
	case "uniform", "adaptive":
	default:
		return fmt.Errorf("serve: unknown scheduling policy %q (want uniform or adaptive)", s.Sched)
	}
	return nil
}
