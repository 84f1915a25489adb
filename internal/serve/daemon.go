package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/icsnju/metamut-go/internal/durable"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/serve/heal"
)

// Quotas bounds one tenant's service share. Zero values mean
// unlimited.
type Quotas struct {
	// MaxActiveJobs caps a tenant's non-terminal jobs.
	MaxActiveJobs int
	// MaxTotalSteps caps a tenant's lifetime submitted step budget.
	MaxTotalSteps int
}

// Config shapes a Daemon.
type Config struct {
	// StateDir holds the ledger and every job's state (required).
	StateDir string
	// Fleet is the shared worker-goroutine count each slice runs on
	// (default GOMAXPROCS via the engine). Throughput only — never
	// results.
	Fleet int
	// SliceEpochs is the preemption granularity: epochs a job runs
	// before the fleet may switch to another (default 1).
	SliceEpochs int
	// Quantum is the deficit-round-robin credit per tenant visit, in
	// steps (default 512).
	Quantum int
	// Quotas applies to every tenant.
	Quotas Quotas
	// Registry receives the serve_* families (nil disables telemetry).
	Registry *obs.Registry
	// Breaker tunes the admission circuit breaker: consecutive job
	// failures open it and submissions are deferred until a probe job
	// succeeds. Zero values take resil defaults.
	Breaker resil.BreakerConfig
	// Heal tunes the supervision layer: poison-job quarantine, overload
	// shedding, and disk-pressure degradation. Zero values take heal
	// defaults (overload shedding stays off until HighWaterJobs is set).
	Heal heal.Config
	// Chaos, when set, injects service-layer faults for the chaos
	// harness (see internal/resil/chaos.ServeInjector). Nil in
	// production.
	Chaos *ChaosHooks
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// ChaosHooks are the daemon's fault-injection points. Each hook may be
// nil; all are driven from the coordinator goroutine.
type ChaosHooks struct {
	// SliceStart runs at the top of every slice, before the campaign is
	// touched — a panic here is recoverable by construction and
	// exercises the slice supervision path.
	SliceStart func(jobSeq, attempt int)
	// CheckpointTransform is handed to every job's engine config
	// (rewrites or rejects checkpoint bytes per write attempt).
	CheckpointTransform func([]byte) ([]byte, error)
	// LedgerTransform rewrites or rejects ledger bytes per save.
	LedgerTransform func([]byte) ([]byte, error)
}

// job is one admitted job's live runtime. The coordinator goroutine
// owns camp exclusively; rec and the flags are guarded by Daemon.mu
// (HTTP handlers read rec and the flight recorder only — never the
// campaign, which is mid-epoch most of the time).
type job struct {
	rec    *JobRecord
	dir    string
	camp   *Campaign
	cancel bool // cancellation requested; honored at the next barrier

	// slices counts slice attempts this daemon generation (the chaos
	// harness's per-job site counter; restart-relative by design).
	slices int
	// anoms tallies watchdog detections by kind since the last slice
	// verdict. Written by the flight OnAnomaly hook and read post-slice
	// — both on the coordinator goroutine, so no extra locking.
	anoms map[string]int
	// jerrNoted latches the job's first journal write error so the disk
	// governor books it as one fault, not one per slice forever.
	jerrNoted bool
}

// Daemon is the multi-tenant campaign coordinator.
type Daemon struct {
	cfg  Config
	m    metrics
	lock *engine.Lock // state-dir single-writer guard

	mu     sync.Mutex
	ledger *Ledger
	jobs   map[string]*job // live runtimes for non-terminal jobs
	drr    *drr
	heal   *heal.Supervisor

	breaker *resil.Breaker

	running atomic.Bool // Run entered; Stop/Kill tear down directly if not
	wake    chan struct{}
	stop    chan struct{}
	kill    chan struct{}
	done    chan struct{}
}

// New opens (or creates) the state directory, takes its single-writer
// lock, loads the ledger, and resumes every non-terminal job from its
// last checkpoint. Call Run to start serving slices.
func New(cfg Config) (*Daemon, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if cfg.SliceEpochs <= 0 {
		cfg.SliceEpochs = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	lock, err := engine.AcquireLock(filepath.Join(cfg.StateDir, "daemon"))
	if err != nil {
		return nil, err
	}
	ledger, err := LoadLedger(cfg.StateDir)
	if err != nil {
		lock.Release()
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		m:       newMetrics(cfg.Registry),
		lock:    lock,
		ledger:  ledger,
		jobs:    map[string]*job{},
		drr:     newDRR(cfg.Quantum),
		heal:    heal.New(cfg.Heal, cfg.Registry),
		breaker: resil.NewBreaker(cfg.Breaker, nil),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		kill:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if err := d.recover(); err != nil {
		lock.Release()
		return nil, err
	}
	d.refreshGauges()
	return d, nil
}

// recover rebuilds runtimes for every non-terminal ledger job: resumed
// from checkpoint when one exists, restarted from scratch when the
// daemon died before the first barrier, finalized directly when it
// died after the final barrier but before the bookkeeping.
func (d *Daemon) recover() error {
	recs := append([]*JobRecord(nil), d.ledger.Jobs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	resumed := 0
	for _, rec := range recs {
		if rec.State.Terminal() {
			continue
		}
		j, err := d.buildRuntime(rec)
		if err != nil {
			rec.State = Failed
			rec.Error = err.Error()
			d.m.finished.With(string(Failed)).Inc()
			d.cfg.Logf("serve: job %s failed to recover: %v", rec.ID, err)
			continue
		}
		if j.camp.Finished() {
			// Killed between the final checkpoint and the terminal
			// bookkeeping: finish the paperwork now.
			d.finalizeComplete(j)
			resumed++
			continue
		}
		d.jobs[rec.ID] = j
		d.drr.Enqueue(rec.Tenant, rec.ID)
		if rec.Done > 0 || rec.State == Running {
			resumed++
		}
	}
	if resumed > 0 {
		d.m.resumed.Add(int64(resumed))
		d.cfg.Logf("serve: resumed %d jobs from %s", resumed, d.cfg.StateDir)
	}
	return d.ledger.Save(d.cfg.StateDir)
}

// buildRuntime wraps a job's campaign (see Build, which also continues
// its journal) in the service's bookkeeping: the journal cap, the
// anomaly tally the supervisor strikes on, and the restart from scratch
// of a job whose checkpoint no longer loads. The job's results depend
// only on its spec: the daemon contributes no randomness and no
// ordering.
func (d *Daemon) buildRuntime(rec *JobRecord) (*job, error) {
	dir := JobDir(d.cfg.StateDir, rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ckptPath := filepath.Join(dir, CheckpointFile)
	journal := filepath.Join(dir, JournalFile)
	capped := ""
	if rec.JournalCapped || d.heal.CapJournals() {
		// Capped for the job's lifetime, restarts included, so the file
		// never carries a gap: Build neither writes nor repairs it, and
		// a resumed job replays it read-only below.
		rec.JournalCapped = true
		capped, journal = journal, ""
	}
	// anoms feeds the supervisor: the hook runs on the barrier goroutine
	// (the coordinator, mid-slice) and the post-slice verdict reads the
	// tally on the same goroutine.
	anoms := map[string]int{}
	ecfg := engine.Config{
		Workers:         d.cfg.Fleet,
		CheckpointPath:  ckptPath,
		CheckpointEvery: 1,
		Registry:        obs.NewRegistry(),
	}
	if d.cfg.Chaos != nil {
		ecfg.CheckpointTransform = d.cfg.Chaos.CheckpointTransform
	}
	fcfg := &flight.Config{
		OnAnomaly: func(ev flight.Event) {
			if kind, _ := ev.Data["watchdog"].(string); kind != "" {
				anoms[kind]++
			}
		},
	}
	camp, err := Build(rec.Spec, ecfg, fcfg, journal, 0)
	if errors.Is(err, errUnreadableCheckpoint) {
		d.cfg.Logf("%v; restarting job %s from scratch", err, rec.ID)
		if err := durable.Remove(ckptPath); err != nil {
			return nil, err
		}
		camp, err = Build(rec.Spec, ecfg, fcfg, journal, 0)
	}
	if err != nil {
		return nil, err
	}
	if capped != "" && camp.From != "" {
		// The console and running report resume from what the cap
		// left; PartialJournal stays set, as the file has a gap.
		prefix, err := readCappedJournal(capped, camp.Epoch(), camp.Done())
		if err != nil {
			camp.Close()
			return nil, err
		}
		camp.Flight.RestoreWatchdogs(prefix)
	}
	if camp.PartialJournal && journal != "" {
		d.cfg.Logf("serve: job %s: flight watchdogs and report resume from a partial journal", rec.ID)
	}
	return &job{rec: rec, dir: dir, camp: camp, anoms: anoms}, nil
}

// Submit admits a job: quota and breaker checks, ledger entry, runtime
// construction, scheduler enqueue. Returns the assigned job id.
func (d *Daemon) Submit(spec JobSpec) (string, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return "", &Error{Code: CodeBadSpec, Message: err.Error(), Status: 400}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if reason, retry, shed := d.heal.ShedAdmission(d.liveLocked()); shed {
		return "", &Error{Code: CodeOverloaded, Status: 503, RetryAfter: retry,
			Message: fmt.Sprintf(
				"serve: admission shed (%s); retry in %ds", reason, retry)}
	}
	if !d.breaker.Allow() {
		d.m.quota.With("admission").Inc()
		return "", &Error{Code: CodeAdmission, Status: 503, Message: fmt.Sprintf(
			"serve: admission breaker is %s after consecutive job failures; retry later",
			d.breaker.State())}
	}
	q := d.cfg.Quotas
	if q.MaxActiveJobs > 0 && d.ledger.Active(spec.Tenant) >= q.MaxActiveJobs {
		d.m.quota.With("concurrency").Inc()
		return "", &Error{Code: CodeQuotaConcurrency, Status: 429, Message: fmt.Sprintf(
			"serve: tenant %q already has %d active jobs (quota %d)",
			spec.Tenant, d.ledger.Active(spec.Tenant), q.MaxActiveJobs)}
	}
	if q.MaxTotalSteps > 0 && d.ledger.Committed(spec.Tenant)+spec.Steps > q.MaxTotalSteps {
		d.m.quota.With("steps").Inc()
		return "", &Error{Code: CodeQuotaSteps, Status: 429, Message: fmt.Sprintf(
			"serve: tenant %q has committed %d of %d lifetime steps; a %d-step job does not fit",
			spec.Tenant, d.ledger.Committed(spec.Tenant), q.MaxTotalSteps, spec.Steps)}
	}

	id := fmt.Sprintf("j%04d", d.ledger.NextSeq)
	rec := &JobRecord{
		ID: id, Seq: d.ledger.NextSeq, Tenant: spec.Tenant,
		State: Pending, Spec: spec,
	}
	d.ledger.NextSeq++
	// A torn ledger save can roll admissions back to the .prev
	// generation, re-issuing a sequence number whose job directory
	// already has artifacts. Wipe them: a fresh job must never resume a
	// forgotten job's checkpoint, so one that will not go fails Submit.
	dir := JobDir(d.cfg.StateDir, id)
	for _, f := range []string{CheckpointFile, JournalFile, TriageFile, SpecFile} {
		if err := durable.Remove(filepath.Join(dir, f)); err != nil && f == CheckpointFile {
			return "", &Error{Code: CodeInternal, Status: 500, Message: fmt.Sprintf(
				"serve: job %s: stale checkpoint not wiped: %v", id, err)}
		}
	}
	j, err := d.buildRuntime(rec)
	if err != nil {
		return "", &Error{Code: CodeInternal, Status: 500, Message: err.Error()}
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err == nil {
		err = durable.Write(filepath.Join(j.dir, SpecFile), append(data, '\n'), false)
	}
	if err != nil {
		// An audit copy only: recovery reads the spec from the ledger.
		d.cfg.Logf("serve: job %s spec write: %v", id, err)
	}
	d.ledger.Jobs = append(d.ledger.Jobs, rec)
	d.ledger.Commit(spec.Tenant, spec.Steps)
	d.jobs[id] = j
	d.drr.Enqueue(spec.Tenant, id)
	d.saveLedgerLocked()
	d.m.submitted.Inc()
	d.refreshGauges()
	d.ping()
	d.cfg.Logf("serve: job %s admitted (tenant %s, %d steps)", id, spec.Tenant, spec.Steps)
	return id, nil
}

// Cancel requests a job stop at its next barrier. Terminal jobs are a
// conflict; queued jobs cancel immediately.
func (d *Daemon) Cancel(id string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := d.ledger.Job(id)
	if rec == nil {
		return &Error{Code: CodeNotFound, Status: 404, Message: fmt.Sprintf("serve: no job %s", id)}
	}
	if rec.State.Terminal() {
		return &Error{Code: CodeConflict, Status: 409, Message: fmt.Sprintf(
			"serve: job %s is already %s", id, rec.State)}
	}
	j := d.jobs[id]
	if j == nil {
		return &Error{Code: CodeInternal, Status: 500, Message: fmt.Sprintf(
			"serve: job %s has no runtime", id)}
	}
	j.cancel = true
	d.ping()
	return nil
}

// Job returns a copy of the job's ledger record.
func (d *Daemon) Job(id string) (JobRecord, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	rec := d.ledger.Job(id)
	if rec == nil {
		return JobRecord{}, false
	}
	return *rec, true
}

// Jobs returns record copies, optionally filtered by tenant, in
// submission order.
func (d *Daemon) Jobs(tenant string) []JobRecord {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []JobRecord
	for _, rec := range d.ledger.Jobs {
		if tenant == "" || rec.Tenant == tenant {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Console returns the job's live flight console (nil for jobs with no
// runtime — terminal or unknown).
func (d *Daemon) Console(id string) *flight.ConsoleState {
	d.mu.Lock()
	j := d.jobs[id]
	d.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.camp.Flight.Console()
}

// Run executes the coordinator loop until Stop (graceful) or Kill
// (abandon). It is the only goroutine that touches campaigns.
func (d *Daemon) Run() {
	d.running.Store(true)
	defer close(d.done)
	defer func() {
		if r := recover(); r != nil {
			d.cfg.Logf("serve: coordinator panicked: %v (state is durable; restart the daemon)", r)
		}
	}()
	for {
		select {
		case <-d.kill:
			return
		case <-d.stop:
			d.shutdown()
			return
		default:
		}
		d.mu.Lock()
		d.governLocked()
		id := d.drr.Next(d.sliceCostLocked)
		if id == "" {
			d.mu.Unlock()
			select {
			case <-d.wake:
			case <-d.stop:
				continue
			case <-d.kill:
				continue
			}
			continue
		}
		j := d.jobs[id]
		if j == nil {
			// Finalized while queued (shouldn't happen — finalize
			// removes from the scheduler — but never crash the loop).
			d.mu.Unlock()
			continue
		}
		if j.cancel {
			d.finalizeLocked(j, Cancelled, nil)
			d.mu.Unlock()
			continue
		}
		if j.rec.State == Pending {
			j.rec.State = Running
			d.saveLedgerLocked()
		}
		// The disk governor's checkpoint cadence applies between
		// slices, from this goroutine only — the campaign is quiescent.
		j.camp.SetCheckpointEvery(d.heal.CheckpointEvery())
		d.mu.Unlock()

		// The slice runs outside the daemon lock: status reads stay
		// responsive while the fleet fuzzes. Only this goroutine
		// touches the campaign.
		fin, err := d.runSlice(j)

		d.mu.Lock()
		d.m.slices.Inc()
		d.heal.TickSlice()
		prev := j.rec.Done
		d.refreshRecordLocked(j)
		d.m.steps.Add(int64(j.rec.Done - prev))
		d.noteSliceHealthLocked(j, err)
		quar, cause := d.strikeLocked(j, err, fin)
		switch {
		case quar:
			d.finalizeLocked(j, Quarantined, cause)
			d.breaker.Failure()
		case err != nil:
			// Faulted but under the strike limit: the job stays
			// scheduled and its next slice replays from the last
			// barrier.
			d.cfg.Logf("serve: job %s slice fault (strike %d/%d): %v",
				j.rec.ID, d.heal.Strikes(j.rec.ID), d.heal.Config().StrikeLimit, err)
			d.saveLedgerLocked()
		case j.cancel:
			d.finalizeLocked(j, Cancelled, nil)
		case fin:
			d.finalizeLocked(j, Done, nil)
			d.breaker.Success()
		default:
			d.saveLedgerLocked()
		}
		d.mu.Unlock()
	}
}

// liveLocked counts non-terminal ledger jobs. Callers hold d.mu.
func (d *Daemon) liveLocked() int {
	n := 0
	for _, rec := range d.ledger.Jobs {
		if !rec.State.Terminal() {
			n++
		}
	}
	return n
}

// governLocked re-evaluates the overload pause plan before every
// scheduling decision. The plan always leaves at least the tenant
// floor runnable, so pending work is never stranded behind a pause.
// Callers hold d.mu.
func (d *Daemon) governLocked() {
	before := d.drr.Paused()
	plan := d.heal.PausePlan(d.liveLocked(), d.drr.Loads())
	d.drr.SetPaused(plan)
	if len(plan) != len(before) {
		d.cfg.Logf("serve: overload pause plan now %v", plan)
	}
}

// saveLedgerLocked persists the ledger through the chaos hook (when
// armed) and books a save failure as disk pressure. Callers hold d.mu.
func (d *Daemon) saveLedgerLocked() {
	var transform func([]byte) ([]byte, error)
	if d.cfg.Chaos != nil {
		transform = d.cfg.Chaos.LedgerTransform
	}
	if err := d.ledger.SaveWith(d.cfg.StateDir, transform); err != nil {
		d.cfg.Logf("serve: ledger save: %v", err)
		d.diskFaultLocked("ledger")
	}
}

// noteSliceHealthLocked feeds the disk governor one slice's verdict:
// checkpoint write failures and the job's first journal write error
// are faults; a slice with neither is clean. Callers hold d.mu; the
// campaign is quiescent.
func (d *Daemon) noteSliceHealthLocked(j *job, err error) {
	if errors.Is(err, errSlicePanicked) {
		// The campaign was never entered (or died before its barrier):
		// LastSlice is the previous slice's report, and a panic says
		// nothing about the disk either way.
		return
	}
	sr := j.camp.LastSlice()
	faulted := false
	if sr.CheckpointFailures > 0 {
		faulted = true
		d.cfg.Logf("serve: job %s: %d checkpoint write failures (last: %v)",
			j.rec.ID, sr.CheckpointFailures, sr.CheckpointErr)
		d.diskFaultLocked("checkpoint")
	}
	if !j.jerrNoted {
		if jerr := j.camp.Flight.JournalErr(); jerr != nil {
			j.jerrNoted = true
			faulted = true
			d.cfg.Logf("serve: job %s: journal write error: %v", j.rec.ID, jerr)
			d.diskFaultLocked("journal")
		}
	}
	if !faulted {
		if lvl, down := d.heal.CleanSlice(); down {
			d.applyDiskLevelLocked(lvl)
		}
	}
}

// diskFaultLocked books one disk fault and applies any resulting
// escalation. Callers hold d.mu.
func (d *Daemon) diskFaultLocked(kind string) {
	if lvl, up := d.heal.DiskFault(kind); up {
		d.applyDiskLevelLocked(lvl)
	}
}

// applyDiskLevelLocked enacts a degradation-level change on every live
// job: at shed_sse and above, live journal taps are dropped (and
// subscribe refuses new ones); at cap_journals and above, journals go
// discard-only — one-way per job. Checkpoint stretching and admission
// quarantine are enforced at their use sites. Callers hold d.mu.
func (d *Daemon) applyDiskLevelLocked(lvl heal.Level) {
	d.cfg.Logf("serve: disk-pressure level now %s", lvl)
	ids := make([]string, 0, len(d.jobs))
	for id := range d.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		j := d.jobs[id]
		if lvl >= heal.LevelShedSSE {
			if n := j.camp.Flight.DropSubscribers(); n > 0 {
				d.cfg.Logf("serve: job %s: dropped %d live journal taps", id, n)
			}
		}
		if lvl >= heal.LevelCapJournals && !j.rec.JournalCapped {
			j.camp.Flight.StopJournal()
			j.rec.JournalCapped = true
			d.cfg.Logf("serve: job %s: flight journal capped", id)
		}
	}
}

// strikeLocked turns one slice's outcome into supervision strikes and
// reports whether the job crossed the quarantine threshold (with the
// terminal cause). Cause order is fixed — slice verdict, stream
// poisons, then strike-listed anomalies sorted by kind — so the strike
// schedule is a pure function of the slice sequence. Callers hold d.mu.
func (d *Daemon) strikeLocked(j *job, err error, fin bool) (bool, error) {
	sr := j.camp.LastSlice()
	var causes []string
	switch {
	case errors.Is(err, errSlicePanicked):
		causes = append(causes, "slice_panic")
	case err != nil && sr.CheckpointErr != nil:
		causes = append(causes, "checkpoint_error")
	case err != nil:
		causes = append(causes, "slice_error")
	}
	if err == nil && !fin && sr.Poisoned > 0 {
		causes = append(causes, "stream_poison")
	}
	kinds := make([]string, 0, len(j.anoms))
	for k := range j.anoms {
		if d.heal.AnomalyStrikes(k) {
			kinds = append(kinds, k)
		}
		delete(j.anoms, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		causes = append(causes, "anomaly_"+k)
	}
	for _, cause := range causes {
		if d.heal.StrikeJob(j.rec.ID, cause) {
			j.rec.Strikes = d.heal.Strikes(j.rec.ID)
			if err != nil {
				return true, fmt.Errorf("quarantined after %d strikes (%s): %w",
					j.rec.Strikes, cause, err)
			}
			return true, fmt.Errorf("quarantined after %d strikes (%s)",
				j.rec.Strikes, cause)
		}
	}
	if len(causes) > 0 {
		j.rec.Strikes = d.heal.Strikes(j.rec.ID)
	}
	return false, nil
}

// errSlicePanicked marks a slice ended by a recovered panic, so the
// supervisor can book the strike under its own cause.
var errSlicePanicked = errors.New("job slice panicked")

// runSlice executes one preemption slice under supervision: a panic
// that escapes the engine's own guards strikes the job, never the
// daemon. The chaos hook fires before the campaign is touched, so an
// injected panic is recoverable by construction — the retried slice
// replays from the same barrier.
func (d *Daemon) runSlice(j *job) (fin bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", errSlicePanicked, r)
		}
	}()
	attempt := j.slices
	j.slices++
	if d.cfg.Chaos != nil && d.cfg.Chaos.SliceStart != nil {
		d.cfg.Chaos.SliceStart(j.rec.Seq, attempt)
	}
	return j.camp.RunSlice(context.Background(), d.cfg.SliceEpochs)
}

// sliceCostLocked prices a job's next slice for the fair scheduler:
// its per-epoch step plan times the slice length, clamped to the
// remaining budget. Callers hold d.mu.
func (d *Daemon) sliceCostLocked(id string) int {
	j := d.jobs[id]
	if j == nil {
		return 1
	}
	spec := j.rec.Spec
	per := spec.Streams * spec.StepsPerEpoch * d.cfg.SliceEpochs
	if rem := spec.Steps - j.rec.Done; per > rem {
		per = rem
	}
	return per
}

// refreshRecordLocked mirrors the campaign's barrier state into the
// durable record. Callers hold d.mu; the campaign must be quiescent
// (between slices).
func (d *Daemon) refreshRecordLocked(j *job) {
	j.rec.Done = j.camp.Done()
	j.rec.Epochs = j.camp.Epoch()
	agg := j.camp.MergedStats()
	j.rec.Edges = agg.Coverage.Count()
	j.rec.Crashes = len(agg.Crashes)
	if n := j.camp.Flight.Dropped(); n > j.rec.SSEDropped {
		d.m.sseDropped.Add(n - j.rec.SSEDropped)
		j.rec.SSEDropped = n
	}
}

// finalizeLocked retires a job: terminal flight event (unless the
// engine already journaled completion), triage report, journal close,
// lock release, scheduler removal, ledger update. Callers hold d.mu
// and must be the coordinator goroutine (the campaign is touched).
func (d *Daemon) finalizeLocked(j *job, state JobState, cause error) {
	d.refreshRecordLocked(j)
	if state != Done {
		// An interrupted job's journal gets its end event here — the
		// engine only journals completion for spent budgets.
		j.camp.Flight.End(j.rec.Done, j.rec.Edges, j.rec.Crashes)
	}
	d.writeTriage(j)
	j.camp.Close()
	d.drr.Remove(j.rec.Tenant, j.rec.ID)
	delete(d.jobs, j.rec.ID)
	j.rec.State = state
	if cause != nil {
		j.rec.Error = cause.Error()
	}
	d.m.finished.With(string(state)).Inc()
	d.refreshGauges()
	d.saveLedgerLocked()
	d.cfg.Logf("serve: job %s %s (%d/%d steps, %d edges, %d crashes)",
		j.rec.ID, state, j.rec.Done, j.rec.Spec.Steps, j.rec.Edges, j.rec.Crashes)
}

// finalizeComplete finishes the paperwork for a job whose campaign
// completed before a kill wiped the bookkeeping: journal the end event
// (repair dropped any the killed run wrote), re-run triage, mark DONE.
// Called from recover (coordinator not yet running).
func (d *Daemon) finalizeComplete(j *job) {
	d.refreshRecordLocked(j)
	j.camp.Flight.End(j.rec.Done, j.rec.Edges, j.rec.Crashes)
	d.writeTriage(j)
	j.camp.Close()
	j.rec.State = Done
	d.m.finished.With(string(Done)).Inc()
	d.cfg.Logf("serve: job %s completed before restart; bookkeeping finished", j.rec.ID)
}

// writeTriage renders and persists the job's triage report. Guarded:
// a triage panic after a failed slice must not take the daemon down.
func (d *Daemon) writeTriage(j *job) {
	defer func() {
		if r := recover(); r != nil {
			d.cfg.Logf("serve: job %s triage panicked: %v", j.rec.ID, r)
		}
	}()
	rep := j.camp.Triage(j.camp.Compiler, engine.TriageConfig{Reduce: j.rec.Spec.Reduce})
	if err := rep.WriteJSON(filepath.Join(j.dir, TriageFile)); err != nil {
		d.cfg.Logf("serve: job %s triage write: %v", j.rec.ID, err)
	}
}

// refreshGauges recomputes the active-job and tenant gauges from the
// ledger. Callers hold d.mu (or run before the loop starts).
func (d *Daemon) refreshGauges() {
	active := 0
	tenants := map[string]bool{}
	for _, rec := range d.ledger.Jobs {
		if !rec.State.Terminal() {
			active++
			tenants[rec.Tenant] = true
		}
	}
	d.m.active.Set(int64(active))
	d.m.tenants.Set(int64(len(tenants)))
}

// ping wakes the coordinator if it is parked. The send never blocks
// (wake buffers one wake-up), so it needs no lock: Submit and Cancel
// call it holding d.mu, Kill without it.
func (d *Daemon) ping() {
	select {
	case d.wake <- struct{}{}:
	default:
	}
}

// Stop shuts the coordinator down gracefully: the in-flight slice
// finishes (checkpointing at its barrier), every live job's journal is
// flushed closed, locks release, and the ledger is saved. A daemon
// whose Run never started (e.g. its listener failed to bind) tears
// down directly; Stop must not race Run's first instruction. The
// daemon cannot be restarted in-process; build a new one over the
// state dir.
func (d *Daemon) Stop() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	if !d.running.Load() {
		d.shutdown()
		return
	}
	<-d.done
}

// shutdown is Stop's loop-side half: persist and release everything.
func (d *Daemon) shutdown() {
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.jobs))
	for id := range d.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		d.jobs[id].camp.Close()
	}
	if err := d.ledger.Save(d.cfg.StateDir); err != nil {
		d.cfg.Logf("serve: ledger save: %v", err)
	}
	d.lock.Release()
	d.cfg.Logf("serve: daemon stopped (%d jobs parked at their barriers)", len(ids))
}

// Kill abandons the coordinator without any graceful bookkeeping — the
// test double for SIGKILL. The in-flight slice (if any) completes
// first (the loop only observes the kill between slices), then
// everything is dropped on the floor: no ledger save, no journal
// close, no triage. Lock files are removed — the one cleanup a real
// process death performs implicitly, since a dead pid's locks are
// stale-stealable while this still-live test process's are not.
func (d *Daemon) Kill() {
	select {
	case <-d.kill:
	default:
		close(d.kill)
	}
	d.ping()
	if d.running.Load() {
		<-d.done
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, j := range d.jobs {
		j.camp.Unlock()
	}
	d.lock.Release()
}
