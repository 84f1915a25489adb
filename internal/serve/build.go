package serve

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators" // populate the mutator registry
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// MutantCacheEntries bounds the mutant dedup cache in front of every
// campaign compiler (see compilersim.Compiler.EnableMutantCache). The
// cache never changes a result, only how often the pipeline runs.
const MutantCacheEntries = 4096

// Compiler returns a fresh simulated compiler for a JobSpec profile:
// "clang" is clang-18, anything else gcc-14 — the latest release of
// each that the paper fuzzes.
func Compiler(profile string) *compilersim.Compiler {
	if profile == "clang" {
		return compilersim.New("clang", 18)
	}
	return compilersim.New("gcc", 14)
}

// Arsenal returns the mutators of a JobSpec set: "s" the supervised
// ones, "u" the unsupervised ones, anything else all of them.
func Arsenal(set string) []*muast.Mutator {
	switch set {
	case "s":
		return muast.BySet(muast.Supervised)
	case "u":
		return muast.BySet(muast.Unsupervised)
	}
	return muast.All()
}

// RegisterCampaignMetrics pre-registers every metric family a fuzzing
// campaign can touch, so snapshots and /debug/metrics show the full
// schema from the first tick. Nil registry is a no-op.
func RegisterCampaignMetrics(reg *obs.Registry) {
	fuzz.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)
}

// Campaign is a macro campaign assembled by Build, ready to Run.
type Campaign struct {
	*engine.Campaign
	// Compiler is the campaign's private compiler; triage replays the
	// crashes against it.
	Compiler *compilersim.Compiler
	// Flight is the campaign's recorder (nil when Build got no flight
	// config).
	Flight *flight.Recorder
	// Spec is the campaign's identity after the resume rule: on resume
	// its streams, steps-per-epoch, policy and budget are the
	// snapshot's.
	Spec JobSpec
	// From is the checkpoint file the campaign resumed from —
	// CheckpointPath or its .prev — and "" for a fresh start.
	From string
	// PartialJournal reports that the resumed recorder replayed less
	// than the whole campaign (no journal, or a rotation dropped its
	// head): an anomaly already raised may fire again.
	PartialJournal bool

	journal io.Closer
}

// decodeSnapshot is engine.DecodeSnapshot; a test counts its calls.
var decodeSnapshot = engine.DecodeSnapshot

// errUnreadableCheckpoint marks a Build that failed because a
// checkpoint exists but neither generation loads; the daemon restarts
// such a job from scratch.
var errUnreadableCheckpoint = errors.New("serve: checkpoint unreadable")

// Build assembles the macro campaign (§3.4: shared coverage, havoc
// stacking, flag sampling) that spec describes. It is the only place a
// macro campaign is put together: mucfuzz -macro, every mucfuzzd job
// and Table 6 all come through here, so one spec means one campaign
// wherever it runs.
//
// ecfg carries deployment only — Registry, Workers, CheckpointPath and
// CheckpointEvery, OnEpoch and the chaos hooks; Build fills the
// identity fields from spec. A non-zero ecfg.Seed seeds the stream RNGs
// in place of spec.Seed while the seed pool still derives from
// spec.Seed (Table 6 runs both compilers over one corpus). fcfg, when
// non-nil, attaches a flight recorder: its Watchdogs and OnAnomaly are
// kept, the rest is filled from the spec. With a journal path the
// recorder journals to that file, rotated past maxBytes (0 = never),
// under the one journal rule (openJournal); Close closes it.
//
// When a checkpoint loads from ecfg.CheckpointPath (or its .prev) the
// campaign resumes, and its journal continues. The snapshot then owns
// the seed, streams, steps-per-epoch and scheduler policy; a spec
// budget larger than the snapshot's extends the campaign, and a zero
// one keeps the snapshot's. No checkpoint file means a fresh start;
// one that exists but cannot be loaded is an error, and so is a
// checkpoint path another campaign holds locked. The checkpoint is
// read once, for the resume and the journal repair alike.
func Build(spec JobSpec, ecfg engine.Config, fcfg *flight.Config, journal string, maxBytes int64) (*Campaign, error) {
	var snap *engine.Snapshot
	var ckpt []byte
	var from string
	if ecfg.CheckpointPath != "" {
		var err error
		ckpt, from, err = durable.Read(ecfg.CheckpointPath, func(data []byte) (err error) {
			snap, err = decodeSnapshot(data)
			return err
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: %w", errUnreadableCheckpoint, err)
		}
	}
	spec.Normalize()
	streamSeed := ecfg.Seed
	if streamSeed == 0 {
		streamSeed = spec.Seed
	}
	if snap != nil {
		streamSeed, spec.Streams, spec.StepsPerEpoch = snap.Seed, snap.Streams, snap.StepsPerEpoch
		if st := snap.StreamStates[0].Sched; st != nil {
			spec.Sched = st.Kind
		}
		spec.Steps = max(spec.Steps, snap.TotalSteps)
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	reg := ecfg.Registry
	RegisterCampaignMetrics(reg)
	comp := Compiler(spec.Compiler)
	comp.Instrument(reg)
	comp.EnableMutantCache(MutantCacheEntries)
	mutators := Arsenal(spec.MutatorSet)
	pool := seeds.Generate(spec.SeedCount, spec.Seed)

	c := &Campaign{Compiler: comp, Spec: spec, From: from}
	if fcfg != nil {
		f := *fcfg
		f.Streams, f.TotalSteps, f.Seed = spec.Streams, spec.Steps, streamSeed
		f.Registry = reg
		f.ArmNames = make([]string, len(mutators))
		for i, mu := range mutators {
			f.ArmNames[i] = mu.Name
		}
		var prefix []byte
		c.PartialJournal = snap != nil
		if journal != "" {
			var w io.WriteCloser
			var err error
			if w, prefix, c.PartialJournal, err = openJournal(journal, maxBytes, snap, len(ckpt)); err != nil {
				return nil, err
			}
			f.Journal, c.journal = w, w
		}
		if snap != nil {
			f.Done = snap.Done
		}
		c.Flight = flight.NewRecorder(f)
		c.Flight.RestoreWatchdogs(prefix)
	}

	mcfg := fuzz.DefaultMacroConfig()
	mcfg.StaticFilter = !spec.NoStatic
	factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		w := fuzz.NewMacroFuzzer(fmt.Sprintf("macro-%s-%d", spec.Compiler, stream),
			comp, mutators, pool, rng, cov, mcfg)
		w.Sched, _ = sched.New(spec.Sched, len(mutators)) // Validate vetted the policy
		w.Stats().Instrument(reg)
		w.InstrumentSched(reg)
		if c.Flight != nil {
			w.AttachFlight(c.Flight.Stream(stream))
		}
		return w
	}
	ecfg.Streams, ecfg.StepsPerEpoch, ecfg.TotalSteps = spec.Streams, spec.StepsPerEpoch, spec.Steps
	ecfg.Seed = streamSeed
	ecfg.Flight = c.Flight
	var err error
	if snap == nil {
		// New defers a lock failure to the first RunSlice; Build
		// reports it now, before anyone counts on the campaign.
		c.Campaign = engine.New(ecfg, factory)
		err = c.LockErr()
	} else {
		c.Campaign, err = engine.ResumeSnapshot(ecfg.CheckpointPath, snap, from, ecfg, factory)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Close releases what the campaign holds: its checkpoint locks and its
// flight journal file. Call it once, when done with the campaign.
func (c *Campaign) Close() error {
	if c.Campaign != nil {
		c.Unlock()
	}
	if c.journal == nil {
		return nil
	}
	return c.journal.Close()
}
