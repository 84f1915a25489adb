package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
	"github.com/icsnju/metamut-go/internal/serve"
)

// Daemon workload shape: two tenants in a closed loop over one seeded
// list of short jobs on a fleet of 2. A small steps_per_epoch makes
// every job checkpoint, journal and save the ledger every few dozen
// steps; half the specs reduce their crash witnesses. Jobs differ in
// their campaign seed, so how many crashes a job finds, and so how
// long its reduction takes, varies from job to job; the list is long
// enough that a run's mix does not hinge on a few jobs.
const (
	daemonFleet   = 2
	daemonTenants = 2
	daemonSpecs   = 96
	jobSteps      = 192
	jobStreams    = 2
	jobEpochSteps = 16
	// pollInterval must stay well below the median job latency (a few
	// hundred milliseconds) so latency is not quantized by polling.
	pollInterval = 5 * time.Millisecond
)

// daemonSpecList draws the seeded job list both tenants cycle through.
func daemonSpecList(seed int64) []serve.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]serve.JobSpec, daemonSpecs)
	for i := range specs {
		specs[i] = serve.JobSpec{
			SpecVersion:   serve.JobSpecVersion,
			Compiler:      "gcc",
			MutatorSet:    "s",
			Seed:          1 + rng.Int63n(1<<31),
			SeedCount:     seedCount,
			Steps:         jobSteps,
			Streams:       jobStreams,
			StepsPerEpoch: jobEpochSteps,
			Sched:         "adaptive",
			Reduce:        i%2 == 1,
		}
	}
	return specs
}

// daemonRig is an in-process mucfuzzd behind a loopback listener.
type daemonRig struct {
	d         *serve.Daemon
	srv       *http.Server
	transport *http.Transport
	client    *serve.Client
	dir       string
	wg        sync.WaitGroup
}

// startDaemon is the workload's set-up: serve.New over a fresh state
// dir, Run, and a loopback listener that answers Health.
func startDaemon(dir string) (*daemonRig, error) {
	reg := obs.NewRegistry()
	serve.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	d, err := serve.New(serve.Config{StateDir: dir, Fleet: daemonFleet, Registry: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Stop()
		return nil, err
	}
	// One connection per tenant: at most 2 loopback connections.
	tr := &http.Transport{MaxConnsPerHost: daemonTenants, MaxIdleConnsPerHost: daemonTenants}
	r := &daemonRig{
		d: d, srv: &http.Server{Handler: d.Handler()}, transport: tr, dir: dir,
		client: &serve.Client{Addr: ln.Addr().String(), HTTP: &http.Client{Transport: tr}},
	}
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		r.srv.Serve(ln)
	}()
	go func() {
		defer r.wg.Done()
		d.Run()
	}()
	if _, err := r.client.Health(); err != nil {
		r.stop()
		return nil, fmt.Errorf("health: %w", err)
	}
	return r, nil
}

// stop shuts the listener and the coordinator down and waits for both.
func (r *daemonRig) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r.srv.Shutdown(ctx)
	r.d.Stop()
	r.wg.Wait()
	r.transport.CloseIdleConnections()
}

// jobRun is one job as a tenant observed it.
type jobRun struct {
	spec     int
	id       string
	rec      serve.JobRecord
	latency  float64 // submit until the terminal state was observed
	submitS  float64
	queueS   float64 // submit until RUNNING was first observed
	runS     float64 // RUNNING until terminal
	resultsS float64
	results  []byte
}

// tenantLoop submits one job at a time, waits for its terminal state,
// fetches its results, and moves to the next spec, until the deadline
// has passed and it has run its share of the list, so that the tenants
// together run every spec at least once.
func tenantLoop(c *serve.Client, tenant int, specs []serve.JobSpec, deadline time.Time, calls *callTally) []jobRun {
	var runs []jobRun
	name := fmt.Sprintf("tenant-%d", tenant)
	// Tenants start half the list apart, so identical specs run at
	// different times and under different interleavings.
	next := tenant * len(specs) / daemonTenants
	for len(runs) < len(specs)/daemonTenants || time.Now().Before(deadline) {
		i := next % len(specs)
		next++
		spec := specs[i]
		spec.Tenant = name
		jr := jobRun{spec: i}
		t0 := time.Now()
		id, err := c.Submit(spec)
		jr.submitS = time.Since(t0).Seconds()
		if !calls.book(err, "submit") {
			return runs
		}
		jr.id = id
		var running time.Time
		for {
			rec, err := c.Job(id)
			if !calls.book(err, "job "+id) {
				return runs
			}
			now := time.Now()
			if running.IsZero() && rec.State != serve.Pending {
				running = now
			}
			if rec.State.Terminal() {
				jr.rec = rec
				jr.latency = now.Sub(t0).Seconds()
				jr.queueS = running.Sub(t0).Seconds()
				jr.runS = now.Sub(running).Seconds()
				break
			}
			time.Sleep(pollInterval)
		}
		t1 := time.Now()
		data, err := c.Results(id)
		jr.resultsS = time.Since(t1).Seconds()
		if !calls.book(err, "results "+id) {
			return runs
		}
		jr.results = data
		runs = append(runs, jr)
	}
	return runs
}

// callTally counts client calls; each is one operation.
type callTally struct {
	mu       sync.Mutex
	attempts int
	errs     []string
}

func (t *callTally) book(err error, what string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempts++
	if err != nil {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
	return err == nil
}

func runDaemon(res *result, seed int64, state string, seconds float64, trace bool) error {
	specs := daemonSpecList(seed)
	// Every set-up repetition starts its own daemon on a fresh state dir;
	// all but the last are stopped after the timing.
	var rigs []*daemonRig
	var err error
	rig := timeSetup(res, func() *daemonRig {
		r, serr := startDaemon(filepath.Join(state, fmt.Sprintf("daemon-%d", len(rigs))))
		if serr != nil {
			err = serr
			return nil
		}
		rigs = append(rigs, r)
		return r
	})
	for _, r := range rigs {
		if r != rig || err != nil {
			r.stop()
		}
	}
	if err != nil {
		return err
	}

	probe := startRun()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	calls := &callTally{}
	perTenant := make([][]jobRun, daemonTenants)
	var wg sync.WaitGroup
	for t := 0; t < daemonTenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			perTenant[t] = tenantLoop(rig.client, t, specs, deadline, calls)
		}(t)
	}
	wg.Wait()
	res.WallS = time.Since(t0).Seconds()
	probe.finish(res)
	res.PeakRSSMB = peakRSSMB()
	rig.stop()

	for _, e := range calls.errs {
		res.check(false, "client call %s", e)
	}
	res.Attempted += calls.attempts - len(calls.errs)
	var runs []jobRun
	for _, tr := range perTenant {
		runs = append(runs, tr...)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].id < runs[j].id })
	first := checkJobs(res, rig.dir, runs, specs)

	// Digest: each spec's Results hash, in spec order. Edges and crashes
	// are per-job means over the spec list, like the campaign workloads'
	// per-campaign means over their sub-seeds.
	var hashes []string
	sigs := map[string]bool{}
	var edges, crashes int
	for i := range specs {
		jr, ok := first[i]
		if !ok {
			hashes = append(hashes, "missing")
			continue
		}
		hashes = append(hashes, hashOf(jr.results))
		edges += jr.rec.Edges
		crashes += jr.rec.Crashes
		var rep engine.TriageReport
		err := json.Unmarshal(jr.results, &rep)
		res.check(err == nil, "job %s Results: %v", jr.id, err)
		for _, b := range rep.Bugs {
			sigs[b.Signature] = true
		}
	}
	res.FinalEdges = float64(edges) / float64(len(specs))
	res.UniqueCrashes = float64(crashes) / float64(len(specs))
	for sig := range sigs {
		res.CrashSigs = append(res.CrashSigs, sig)
	}
	sort.Strings(res.CrashSigs)
	res.Digest = digestOf(res.Workload, hashes)
	for _, jr := range runs {
		res.Steps += jr.rec.Done
		res.EdgesDone += jr.rec.Edges
		res.JobLatencies = append(res.JobLatencies, jr.latency)
	}
	if trace {
		traceDaemon(res, rig.dir, runs, first)
	}
	return nil
}

func hashOf(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// jobArtifacts are the per-job files that identical specs must
// reproduce byte for byte.
var jobArtifacts = []string{serve.TriageFile, serve.JournalFile, serve.CheckpointFile}

// checkJobs requires every job to end DONE, identical specs to give
// byte-identical Results, triage, journal and checkpoint, each spec's
// crash records to reproduce, and each spec's corpus to parse. It
// returns the first DONE run of each spec.
func checkJobs(res *result, dir string, runs []jobRun, specs []serve.JobSpec) map[int]jobRun {
	first := map[int]jobRun{}
	firstFiles := map[int][]string{}
	for _, jr := range runs {
		res.check(jr.rec.State == serve.Done, "job %s (spec %d) ended %s: %s", jr.id, jr.spec, jr.rec.State, jr.rec.Error)
		if jr.rec.State != serve.Done {
			continue
		}
		files := make([]string, len(jobArtifacts))
		for i, name := range jobArtifacts {
			data, err := os.ReadFile(filepath.Join(serve.JobDir(dir, jr.id), name))
			res.check(err == nil, "job %s: read %s: %v", jr.id, name, err)
			files[i] = hashOf(data)
		}
		f, seen := first[jr.spec]
		if !seen {
			first[jr.spec] = jr
			firstFiles[jr.spec] = files
			continue
		}
		res.check(bytes.Equal(jr.results, f.results), "job %s Results differ from job %s (spec %d)", jr.id, f.id, jr.spec)
		for i, name := range jobArtifacts {
			res.check(files[i] == firstFiles[jr.spec][i], "job %s %s differs from job %s (spec %d)", jr.id, name, f.id, jr.spec)
		}
	}
	opts := allOptionSets()
	for i := range specs {
		jr, ok := first[i]
		res.check(ok, "spec %d never completed", i)
		if !ok {
			continue
		}
		snap, err := engine.Load(filepath.Join(serve.JobDir(dir, jr.id), serve.CheckpointFile))
		res.check(err == nil, "job %s checkpoint: %v", jr.id, err)
		if err != nil {
			continue
		}
		checkStreams(res, "gcc", 14, opts, snapshotStreams(jr.id, snap))
	}
	return first
}

// snapshotStreams rebuilds each stream's crash records and corpus from
// a job's final checkpoint.
func snapshotStreams(id string, snap *engine.Snapshot) []streamOutput {
	var out []streamOutput
	for s, ss := range snap.StreamStates {
		st := fuzz.NewStats(id)
		st.Ticks, st.Total, st.Compilable, st.StaticRejects = ss.Stats.Ticks, ss.Stats.Total, ss.Stats.Compilable, ss.Stats.StaticRejects
		for _, c := range ss.Stats.Crashes {
			st.Crashes[c.Signature] = &fuzz.CrashInfo{Report: c.Report, FirstTick: c.FirstTick, Input: c.Input, Via: c.Via}
		}
		out = append(out, streamOutput{label: fmt.Sprintf("job %s stream %d", id, s), stats: st, corpus: ss.Corpus})
	}
	return out
}

// traceDaemon reports the daemon's per-layer metrics: serve from the
// client-call spans, engine and flight from the jobs' own artifacts,
// and the compute layers by replaying each spec's final corpus and
// crash witnesses. The daemon builds its campaigns internally, so the
// per-step wrappers of the campaign workloads cannot be installed.
func traceDaemon(res *result, dir string, runs []jobRun, first map[int]jobRun) {
	const perJob = "client-side span, mean per job"
	var submit, queue, run, results float64
	var epochs int
	for _, jr := range runs {
		submit += jr.submitS
		queue += jr.queueS
		run += jr.runS
		results += jr.resultsS
		epochs += jr.rec.Epochs
	}
	n := float64(max(len(runs), 1))
	res.setLayer("serve.submit_s", submit/n, perJob)
	res.setLayer("serve.queue_wait_s", queue/n, perJob+": submit until RUNNING was first observed")
	res.setLayer("serve.run_s", run/n, perJob+": RUNNING until terminal")
	res.setLayer("serve.results_s", results/n, perJob)
	if fi, err := os.Stat(filepath.Join(dir, "ledger.json")); err == nil {
		res.setLayer("serve.ledger_kb", float64(fi.Size())/1024, "final ledger.json size")
	}

	var events, ckpts int
	var journalBytes, ckptBytes float64
	for _, jr := range runs {
		data, err := os.ReadFile(filepath.Join(serve.JobDir(dir, jr.id), serve.JournalFile))
		if err != nil {
			continue
		}
		journalBytes += float64(len(data))
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			events++
			var ev struct {
				Kind string         `json:"kind"`
				Data map[string]any `json:"data"`
			}
			if json.Unmarshal(line, &ev) == nil && ev.Kind == "checkpoint" {
				ckpts++
				if b, ok := ev.Data["bytes"].(float64); ok {
					ckptBytes += b
				}
			}
		}
	}
	res.setLayer("flight.events", float64(events), "flight.jsonl lines over every job")
	res.setLayer("flight.journal_mb", journalBytes/(1<<20), "flight.jsonl bytes over every job")
	res.setLayer("engine.epochs", float64(epochs), "sum of JobRecord.Epochs")
	res.setLayer("engine.barrier_wait_s", 0, "the daemon owns engine.Config; OnEpoch cannot be set from outside")
	res.setLayer("engine.checkpoints", float64(ckpts), "checkpoint events in the flight journals")
	res.setLayer("engine.checkpoint_mb", ckptBytes/(1<<20), "checkpoint bytes from the journal events")

	var progs []string
	var ws []reproduced
	var stats = fuzz.NewStats("jobs")
	specTicks := map[int]*fuzz.Stats{}
	ids := make([]int, 0, len(first))
	for i := range first {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, i := range ids {
		jr := first[i]
		snap, err := engine.Load(filepath.Join(serve.JobDir(dir, jr.id), serve.CheckpointFile))
		if err != nil {
			continue
		}
		agg := fuzz.NewStats(jr.id)
		for _, s := range snapshotStreams(jr.id, snap) {
			agg.MergeFrom(s.stats)
			progs = append(progs, s.corpus...)
			for sig, c := range s.stats.Crashes {
				if jr.rec.Spec.Reduce {
					ws = append(ws, reproduced{sig: sig, input: c.Input})
				}
			}
		}
		specTicks[i] = agg
		if i == ids[0] {
			t0 := time.Now()
			seeds.Generate(jr.rec.Spec.SeedCount, jr.rec.Spec.Seed)
			res.setLayer("seeds.generate_s", time.Since(t0).Seconds(), "replayed seeds.Generate for one job's spec")
			res.setLayer("engine.checkpoint_s", replayCheckpoint(dir, jr, snap), "replayed Campaign.Checkpoint on a resumed copy of the job (mean of 3)")
		}
	}
	// Scale the replay by every job the run completed.
	for _, jr := range runs {
		if st := specTicks[jr.spec]; st != nil {
			stats.MergeFrom(st)
		}
	}
	c := runCounts{ticks: stats.Ticks, checks: stats.Ticks + stats.StaticRejects}
	rs := replayLayers("gcc", 14, sample(progs, replayPrograms, res.Seed))
	res.setCompileLayers(rs, c, stats, nil)
	res.Notes["cast.parses_per_tick"] += "; manager builds are not observable inside the daemon and are left out"

	opts := allOptionSets()
	fresh := compilersim.New("gcc", 14)
	for k := range ws {
		ws[k].opts, _ = reproduce(fresh, ws[k].input, ws[k].sig, opts)
	}
	sort.Slice(ws, func(a, b int) bool { return ws[a].sig < ws[b].sig })
	res.replayReduce("gcc", 14, ws)

	const inside = "the daemon builds its workers internally; per-step wrappers cannot be installed from outside"
	for _, m := range []string{"muast.manager_builds", "muast.apply_calls", "muast.apply_s", "muast.applicable_ratio",
		"muast.build_s", "cover.merge_calls", "cover.merge_s", "cover.new_ratio", "sched.calls", "sched.busy_s",
		"fuzz.steps", "fuzz.step_s", "fuzz.step_self_s", "trace.step_accounted_share", "trace.spans"} {
		res.setLayer(m, 0, inside)
	}
	res.setLayer("muast.faults", float64(stats.Panics+stats.FuelExhausted), "from the jobs' final checkpoints")
}

// replayCheckpoint resumes a copy of a finished job's checkpoint and
// times Campaign.Checkpoint on it.
func replayCheckpoint(dir string, jr jobRun, snap *engine.Snapshot) float64 {
	src := filepath.Join(serve.JobDir(dir, jr.id), serve.CheckpointFile)
	pool := seeds.Generate(jr.rec.Spec.SeedCount, jr.rec.Spec.Seed)
	comp := compilersim.New("gcc", 14)
	mutators := muast.BySet(muast.Supervised)
	factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		w := fuzz.NewMacroFuzzer("replay", comp, mutators, pool, rng, cov, fuzz.DefaultMacroConfig())
		if s, err := sched.New(jr.rec.Spec.Sched, len(mutators)); err == nil {
			w.Sched = s
		}
		return w
	}
	const reps = 3
	var total float64
	for i := 0; i < reps; i++ {
		out := filepath.Join(dir, fmt.Sprintf("ckpt-replay-%d.json", i))
		camp, err := engine.Resume(src, engine.Config{TotalSteps: snap.TotalSteps, CheckpointPath: out}, factory)
		if err != nil {
			return 0
		}
		t0 := time.Now()
		camp.Checkpoint()
		total += time.Since(t0).Seconds()
		camp.Unlock()
	}
	return total / reps
}
