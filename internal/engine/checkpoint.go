package engine

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/sched"
)

// SnapshotVersion guards the checkpoint format. Bump on any change to
// the Snapshot layout; Load rejects other versions rather than guess.
// Version 2 added the sha256 integrity checksum, the rotated .prev
// generation, and per-stream poison records. Version 3 added per-stream
// scheduler posteriors.
const SnapshotVersion = 3

// ErrCorrupt reports that a checkpoint file failed its integrity check
// (missing or mismatched checksum) — typically a torn write.
var ErrCorrupt = errors.New("engine: checkpoint failed integrity check")

// Snapshot is the versioned on-disk form of a campaign at an epoch
// barrier: everything needed to resume bit-identically — campaign
// identity, progress, the global coverage map, and per-stream RNG
// state, corpus, and accounting.
type Snapshot struct {
	Version       int   `json:"version"`
	Seed          int64 `json:"seed"`
	Streams       int   `json:"streams"`
	StepsPerEpoch int   `json:"steps_per_epoch"`
	TotalSteps    int   `json:"total_steps"`
	Epoch         int   `json:"epoch"`
	Done          int   `json:"done"`
	// Coverage is the global map: base64 of the little-endian words.
	Coverage     string        `json:"coverage"`
	StreamStates []StreamState `json:"stream_states"`
	// Poisoned lists streams retired by the supervisor, sorted by
	// stream, so a resumed campaign keeps them off the schedule.
	Poisoned []PoisonState `json:"poisoned,omitempty"`
	// Checksum is the hex sha256 of this snapshot's canonical JSON with
	// Checksum itself empty; Load rejects mismatches with ErrCorrupt.
	Checksum string `json:"checksum"`
}

// PoisonState is one retired stream's record in the checkpoint.
type PoisonState struct {
	Stream int    `json:"stream"`
	Epoch  int    `json:"epoch"`
	Reason string `json:"reason"`
}

// checksum computes the snapshot's integrity hash: sha256 over the
// canonical JSON with the Checksum field blanked. json.Marshal of a
// struct is deterministic (fields in declaration order, no maps in the
// snapshot), so the hash round-trips through encode/decode.
func (s *Snapshot) checksum() (string, error) {
	cp := *s
	cp.Checksum = ""
	data, err := json.Marshal(&cp)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Seal stamps the integrity checksum onto the snapshot.
func (s *Snapshot) Seal() error {
	sum, err := s.checksum()
	if err != nil {
		return err
	}
	s.Checksum = sum
	return nil
}

// VerifyIntegrity recomputes the checksum and returns ErrCorrupt on a
// missing or mismatched value.
func (s *Snapshot) VerifyIntegrity() error {
	if s.Checksum == "" {
		return fmt.Errorf("%w: no checksum", ErrCorrupt)
	}
	sum, err := s.checksum()
	if err != nil {
		return err
	}
	if sum != s.Checksum {
		return fmt.Errorf("%w: checksum %.12s… does not match contents", ErrCorrupt, s.Checksum)
	}
	return nil
}

// StreamState is one stream's checkpointed state.
type StreamState struct {
	// RNG is the stream's splitmix64 state (the full generator state).
	RNG    uint64     `json:"rng"`
	Corpus []string   `json:"corpus"`
	Stats  StatsState `json:"stats"`
	// Sched is the stream's mutator-scheduler posterior, present when
	// the worker implements SchedWorker. Resuming an adaptive campaign
	// without it would diverge from the uninterrupted run.
	Sched *sched.State `json:"sched,omitempty"`
}

// SchedWorker is the optional Worker extension for mutator schedulers
// whose posteriors must ride the checkpoint (both fuzz.MuCFuzz and
// fuzz.MacroFuzzer implement it).
type SchedWorker interface {
	SchedState() *sched.State
	SetSchedState(*sched.State) error
}

// StatsState serializes fuzz.Stats. The stream's private coverage map
// is included because self-guided workers (μCFuzz) use it as their
// pool-admission signal — resuming without it would diverge.
type StatsState struct {
	Total         int          `json:"total"`
	Compilable    int          `json:"compilable"`
	StaticRejects int          `json:"static_rejects"`
	Ticks         int          `json:"ticks"`
	Panics        int          `json:"panics,omitempty"`
	FuelExhausted int          `json:"fuel_exhausted,omitempty"`
	Coverage      string       `json:"coverage"`
	Crashes       []CrashState `json:"crashes"`
}

// CrashState is one unique crash, sorted by signature for a stable
// serialization.
type CrashState struct {
	Signature string                  `json:"signature"`
	Report    compilersim.CrashReport `json:"report"`
	FirstTick int                     `json:"first_tick"`
	Input     string                  `json:"input"`
	Via       string                  `json:"via"`
}

func encodeCoverage(m *cover.Map) string {
	words := m.Words()
	buf := make([]byte, len(words)*8)
	for i, w := range words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

func decodeCoverage(s string) (*cover.Map, error) {
	buf, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("coverage: %w", err)
	}
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("coverage: %d bytes is not a word array", len(buf))
	}
	words := make([]uint64, len(buf)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	m := cover.NewMap()
	m.SetWords(words)
	return m, nil
}

func statsState(st *fuzz.Stats) StatsState {
	out := StatsState{
		Total:         st.Total,
		Compilable:    st.Compilable,
		StaticRejects: st.StaticRejects,
		Ticks:         st.Ticks,
		Panics:        st.Panics,
		FuelExhausted: st.FuelExhausted,
		Coverage:      encodeCoverage(st.Coverage),
	}
	sigs := make([]string, 0, len(st.Crashes))
	for sig := range st.Crashes {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		ci := st.Crashes[sig]
		out.Crashes = append(out.Crashes, CrashState{
			Signature: sig,
			Report:    ci.Report,
			FirstTick: ci.FirstTick,
			Input:     ci.Input,
			Via:       ci.Via,
		})
	}
	return out
}

func restoreStats(st *fuzz.Stats, ss StatsState) error {
	cov, err := decodeCoverage(ss.Coverage)
	if err != nil {
		return err
	}
	st.Total = ss.Total
	st.Compilable = ss.Compilable
	st.StaticRejects = ss.StaticRejects
	st.Ticks = ss.Ticks
	st.Panics = ss.Panics
	st.FuelExhausted = ss.FuelExhausted
	st.Coverage = cov
	st.Crashes = make(map[string]*fuzz.CrashInfo, len(ss.Crashes))
	for _, cs := range ss.Crashes {
		st.Crashes[cs.Signature] = &fuzz.CrashInfo{
			Report:    cs.Report,
			FirstTick: cs.FirstTick,
			Input:     cs.Input,
			Via:       cs.Via,
		}
	}
	return nil
}

// Snapshot captures the campaign's current barrier state.
func (c *Campaign) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		Version:       SnapshotVersion,
		Seed:          c.cfg.Seed,
		Streams:       c.cfg.Streams,
		StepsPerEpoch: c.cfg.StepsPerEpoch,
		TotalSteps:    c.cfg.TotalSteps,
		Epoch:         c.epoch,
		Done:          c.done,
		Coverage:      encodeCoverage(c.global),
	}
	for i, w := range c.workers {
		ss := StreamState{
			RNG:    c.sources[i].state,
			Corpus: w.Corpus(),
			Stats:  statsState(w.Stats()),
		}
		if sw, ok := w.(SchedWorker); ok {
			ss.Sched = sw.SchedState()
		}
		snap.StreamStates = append(snap.StreamStates, ss)
	}
	var streams []int
	for s := range c.poisoned {
		streams = append(streams, s)
	}
	sort.Ints(streams)
	for _, s := range streams {
		info := c.poisoned[s]
		snap.Poisoned = append(snap.Poisoned, PoisonState{
			Stream: s, Epoch: info.Epoch, Reason: info.Reason,
		})
	}
	if err := snap.Seal(); err != nil {
		return nil, err
	}
	return snap, nil
}

// Checkpoint writes the current snapshot to cfg.CheckpointPath with
// durable.Write, keeping the checkpoint it replaces as the .prev
// generation. Failed write attempts are retried up to
// cfg.CheckpointRetries times and counted in
// engine_checkpoint_failures_total.
func (c *Campaign) Checkpoint() error {
	if c.cfg.CheckpointPath == "" {
		return nil
	}
	if c.ckptDone == c.done {
		// The last successful write already captured this barrier;
		// rewriting it would only rotate a distinct generation out of
		// .prev for an identical copy.
		return nil
	}
	sp := c.reg.Span("engine_checkpoint")
	snap, err := c.Snapshot()
	if err != nil {
		return err
	}
	data, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < c.cfg.CheckpointRetries; attempt++ {
		out := data
		if c.cfg.CheckpointTransform != nil {
			var terr error
			if out, terr = c.cfg.CheckpointTransform(data); terr != nil {
				lastErr = terr
				c.mCkptFails.Inc()
				continue
			}
		}
		if err := durable.Write(c.cfg.CheckpointPath, out, true); err != nil {
			lastErr = err
			c.mCkptFails.Inc()
			continue
		}
		c.ckptDone = c.done
		c.mCkpts.Inc()
		c.mCkptBytes.Set(int64(len(out)))
		if c.cfg.Flight != nil {
			c.cfg.Flight.Checkpoint(c.epoch, c.done, len(out))
		}
		sp.EndWith(map[string]any{"bytes": len(out), "epoch": c.epoch, "done": c.done})
		return nil
	}
	sp.End()
	return lastErr
}

// Load reads and validates a checkpoint file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	return snap, nil
}

// DecodeSnapshot parses checkpoint bytes and validates their version,
// shape and checksum.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, err
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("version %d, want %d", snap.Version, SnapshotVersion)
	}
	if snap.Streams <= 0 || len(snap.StreamStates) != snap.Streams {
		return nil, fmt.Errorf("%d stream states for %d streams",
			len(snap.StreamStates), snap.Streams)
	}
	if err := snap.VerifyIntegrity(); err != nil {
		return nil, err
	}
	return &snap, nil
}

// LoadWithFallback loads the checkpoint at path, or its .prev when the
// primary is missing or fails validation (torn write, checksum
// mismatch), with durable.Read; it also returns the file used.
func LoadWithFallback(path string) (snap *Snapshot, from string, err error) {
	_, from, err = durable.Read(path, func(data []byte) (err error) {
		snap, err = DecodeSnapshot(data)
		return err
	})
	return snap, from, err
}

// Resume rebuilds a campaign from a checkpoint. A corrupted primary
// generation falls back to the rotated .prev (counted in
// engine_checkpoint_fallbacks_total) — re-fuzzing one checkpoint
// interval beats losing the campaign. The snapshot defines the campaign
// identity: explicitly-set cfg fields that contradict it (Seed,
// Streams, StepsPerEpoch) are an error, zero values inherit from the
// snapshot. TotalSteps may exceed the snapshot's to extend the
// campaign; zero keeps the original budget.
//
// Resume takes the checkpoint's single-writer lock before reading, so
// two daemons (or a daemon plus a CLI run) racing for the same campaign
// state fail fast with ErrLocked instead of corrupting it. The lock is
// released when the campaign completes or fails, or via Unlock.
func Resume(path string, cfg Config, factory Factory) (*Campaign, error) {
	return resume(path, nil, "", cfg, factory)
}

// ResumeSnapshot is Resume over a snapshot the caller already loaded
// from path with LoadWithFallback, or with durable.Read and
// DecodeSnapshot; from is the file it came from. It takes the same
// locks but reads no file, so a caller that needs the snapshot first
// (the daemon repairs a job's journal from it) decodes it once, and
// the campaign resumes from exactly the state that caller saw.
func ResumeSnapshot(path string, snap *Snapshot, from string, cfg Config, factory Factory) (*Campaign, error) {
	return resume(path, snap, from, cfg, factory)
}

// resume loads the snapshot after taking the locks when snap is nil.
func resume(path string, snap *Snapshot, from string, cfg Config, factory Factory) (*Campaign, error) {
	guard := &Campaign{}
	guard.acquireLocks(path, cfg.CheckpointPath)
	if guard.lockErr != nil {
		return nil, fmt.Errorf("engine: cannot resume %s: %w", path, guard.lockErr)
	}
	ok := false
	defer func() {
		if !ok {
			guard.Unlock()
		}
	}()
	if snap == nil {
		var err error
		if snap, from, err = LoadWithFallback(path); err != nil {
			return nil, err
		}
	}
	if from != path {
		cfg.Registry.Counter("engine_checkpoint_fallbacks_total").With().Inc()
	}
	if cfg.Seed != 0 && cfg.Seed != snap.Seed {
		return nil, fmt.Errorf("engine: -seed %d contradicts checkpoint seed %d", cfg.Seed, snap.Seed)
	}
	if cfg.Streams != 0 && cfg.Streams != snap.Streams {
		return nil, fmt.Errorf("engine: %d streams contradicts checkpoint's %d", cfg.Streams, snap.Streams)
	}
	if cfg.StepsPerEpoch != 0 && cfg.StepsPerEpoch != snap.StepsPerEpoch {
		return nil, fmt.Errorf("engine: steps-per-epoch %d contradicts checkpoint's %d",
			cfg.StepsPerEpoch, snap.StepsPerEpoch)
	}
	cfg.Seed, cfg.Streams, cfg.StepsPerEpoch = snap.Seed, snap.Streams, snap.StepsPerEpoch
	if cfg.TotalSteps == 0 {
		cfg.TotalSteps = snap.TotalSteps
	}
	cfg.normalize()

	global, err := decodeCoverage(snap.Coverage)
	if err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg, global: global, epoch: snap.Epoch, done: snap.Done,
		poisoned: map[int]PoisonInfo{}, ckptDone: -1}
	for _, ps := range snap.Poisoned {
		c.poisoned[ps.Stream] = PoisonInfo{Epoch: ps.Epoch, Reason: ps.Reason}
	}
	c.instrument()
	for i := 0; i < cfg.Streams; i++ {
		ss := snap.StreamStates[i]
		src := &mix64{state: ss.RNG}
		v := &view{merged: global.Clone(), delta: cover.NewMap()}
		w := factory(i, rand.New(src), v)
		w.SetCorpus(ss.Corpus)
		if err := restoreStats(w.Stats(), ss.Stats); err != nil {
			return nil, fmt.Errorf("stream %d: %w", i, err)
		}
		if ss.Sched != nil {
			sw, ok := w.(SchedWorker)
			if !ok {
				return nil, fmt.Errorf("stream %d: checkpoint carries scheduler state but the worker has no scheduler", i)
			}
			if err := sw.SetSchedState(ss.Sched); err != nil {
				return nil, fmt.Errorf("stream %d: %w", i, err)
			}
		}
		c.sources = append(c.sources, src)
		c.views = append(c.views, v)
		c.workers = append(c.workers, w)
	}
	c.locks = guard.locks
	ok = true
	return c, nil
}
