# Standard-library-only Go module; these targets are the full local CI.

GO ?= go

.PHONY: check lint build vet staticcheck detlint test race fuzz-smoke bench bench-json bench-smoke bench-gate maybe-bench-gate campaign-smoke chaos-smoke flight-smoke serve-smoke chaos-serve-smoke clean

# check is the one-stop gate: lint (vet + detlint, + staticcheck when
# installed), build, full test suite, the race-detector pass over the
# concurrency-bearing packages, a short run of every native fuzz
# target, then a one-epoch scheduling-ablation smoke. Set BENCH_GATE=1 to also run the full performance gate
# (bench-gate, several minutes — see docs/PERFORMANCE.md).
check: lint build test race fuzz-smoke bench-smoke maybe-bench-gate

# lint bundles every static gate: go vet, the repo's own invariant
# linter (docs/STATIC_ANALYSIS.md), and staticcheck when present.
lint: vet detlint staticcheck

build:
	$(GO) build ./...

# repobench is a separate module that `./...` does not reach; vetting
# it here catches an internal API change that would break the
# benchmark. Vet only reads it.
vet:
	$(GO) vet ./...
	cd repobench && $(GO) vet ./...

# staticcheck is optional tooling: run it when present, skip quietly in
# environments that only have the Go toolchain.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

# detlint enforces the repo's determinism and supervision invariants
# (unsorted map iteration into serialization sinks, wall-clock reads in
# deterministic packages, unseeded global randomness, unsupervised
# goroutines, undocumented metric names). Exit 1 on any finding — a
# hazard needs a reasoned //detlint:allow to land.
detlint:
	$(GO) run ./cmd/detlint ./...

test:
	$(GO) test ./...

# The obs registry, the fuzz stats, and the campaign engine are the
# shared-mutable-state hot spots. compilersim is on every fuzzing
# path: all of a campaign's workers share one Compiler, its pooled
# contexts and its mutex-guarded mutant cache. mutcheck is off the fuzz
# path (the fuzzers filter through compilersim's front end) but rides
# along for Reject's arena pool, which concurrent callers share. The
# resilience layer (breaker, chaos injector) is here because its whole
# job is concurrent fault handling. detlint rides along so the invariant
# gate (including its repo-wide self-check test) is itself race-vetted.
# cast and muast are here for the parse cache's shared units: their node
# tables are built in Check, never on a first query, so concurrent
# queries only read.
race:
	$(GO) test -race ./internal/obs ./internal/fuzz ./internal/compilersim \
		./internal/cast ./internal/muast ./internal/mutcheck \
		./internal/engine ./internal/resil ./internal/resil/chaos \
		./internal/sched ./internal/flight ./internal/detlint \
		./internal/serve ./internal/serve/heal

# fuzz-smoke runs each native fuzz target for 10s beyond its seed
# corpus: the mutant validator; the checkpoint and ledger decoders
# that must return a value or an error, never panic, on any bytes; the
# flight journal repair, which must keep a valid line-prefix and repair
# its own output to itself; the daemon's job-spec decode, which must
# give a spec or an error and round-trip every spec it admits; and
# the front end's lexer and walker, held to their former map- and
# closure-driven references. Go
# fuzzes one target per invocation; -parallel 2 keeps it to two
# worker processes. Minimizing a new input derived from the 42 KB
# checkpoint seed would otherwise take the whole budget, hence the
# capped -fuzzminimizetime.
FUZZFLAGS = -run '^$$' -fuzztime 10s -fuzzminimizetime 200x -parallel 2
fuzz-smoke:
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzMutantValidator$$' ./internal/mutcheck
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzCheckpointLoad$$' ./internal/engine
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzLedgerLoad$$' ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzRepairJournal$$' ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzJobSpec$$' ./internal/serve
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzLexMatchesReference$$' ./internal/cast
	$(GO) test $(FUZZFLAGS) -fuzz '^FuzzWalkOrder$$' ./internal/cast

bench:
	$(GO) test -bench=. -benchmem .

# bench-json regenerates the committed performance record: the
# scheduling/cache ablation (BENCH_sched.json) at the default seed and
# budget. README's Performance section and docs/PERFORMANCE.md quote
# it; bench-gate compares fresh runs against it.
bench-json:
	$(GO) run ./cmd/experiments -run schedbench -out BENCH_sched.json

# bench-smoke is the check-gate variant: a tiny budget, throwaway
# output — proves the ablation path end to end without the full cost.
bench-smoke:
	$(GO) run ./cmd/experiments -run schedbench -schedbench-steps 400 \
		-out .bench-smoke.json
	@rm -f .bench-smoke.json

# bench-gate is the performance regression gate (docs/PERFORMANCE.md):
# the always-on allocation budgets for the compile and mutate halves of
# the tick, then a full-budget rerun of schedbench compared against the
# committed BENCH_sched.json — fails if steady-state ticks allocate past
# their budgets, if edges/sec regresses more
# than 10%, or if any tick/edge/crash count drifts (a determinism break
# outranks any speedup). Opt into it from check with BENCH_GATE=1.
bench-gate:
	$(GO) test -run 'TestHotLoopAllocBudget|TestMutationStepAllocBudget|TestFrontEndAllocBudget' -count=1 .
	$(GO) run ./cmd/experiments -run benchgate

maybe-bench-gate:
	@if [ "$(BENCH_GATE)" = "1" ]; then \
		$(MAKE) bench-gate; \
	else \
		echo "bench-gate skipped (set BENCH_GATE=1 to run the perf gate)"; \
	fi

# campaign-smoke proves the parallel engine end to end: a 4-worker
# checkpointed mini-campaign, then a resume from its snapshot with a
# doubled budget and witness reduction on the triaged bugs.
campaign-smoke:
	@rm -rf .smoke && mkdir .smoke
	$(GO) run ./cmd/mucfuzz -macro -steps 2000 -workers 4 \
		-checkpoint .smoke/campaign.json -triage-out .smoke/triage.json
	$(GO) run ./cmd/mucfuzz -macro -resume .smoke/campaign.json \
		-steps 4000 -workers 4 -reduce -triage-out .smoke/triage.json
	@rm -rf .smoke

# chaos-smoke proves fault tolerance end to end: a checkpointed campaign
# under the deterministic chaos harness (injected worker panics plus
# torn/failed checkpoint writes), then a resume — through the .prev
# fallback if the last generation was torn — with chaos still armed.
chaos-smoke:
	@rm -rf .chaos-smoke && mkdir .chaos-smoke
	$(GO) run ./cmd/mucfuzz -macro -steps 2000 -workers 4 \
		-checkpoint .chaos-smoke/campaign.json -checkpoint-every 1 -chaos 99
	$(GO) run ./cmd/mucfuzz -macro -resume .chaos-smoke/campaign.json \
		-steps 4000 -workers 4 -chaos 99
	@rm -rf .chaos-smoke

# flight-smoke proves the flight recorder end to end: a chaos campaign
# with the live console up, polled over HTTP (JSON snapshot + a taste of
# the SSE feed) while it runs, then the journal replayed through the
# post-campaign reporter joined with the campaign's metrics snapshot —
# the report must carry the wall-clock stage-latency table, the
# campaign's own -flight-report must equal the replay up to that table,
# and the chaos retries must have tripped at least one watchdog anomaly
# into the journal. Its interrupt-and-resume leg then runs a campaign
# that checkpoints every epoch against a baseline no run can meet,
# SIGINTs it once the throughput-regression anomaly is journaled, and
# resumes it with the same -flight file: the journal must cmp-equal an
# uninterrupted run's and carry the anomaly exactly once.
FLIGHT_REPORT = awk '/^flight report /{p=1} /^stage latency/{p=0} /^flight journal written/{p=0} p'
RESUME_RUN = .flight-smoke/mucfuzz -macro -steps 16000 -seed 3 -checkpoint-every 1 \
	-flight-baseline .flight-smoke/base.json
flight-smoke:
	@rm -rf .flight-smoke && mkdir .flight-smoke
	$(GO) run ./cmd/mucfuzz -macro -streams 16 -steps 12000 -workers 4 \
		-chaos 99 -flight .flight-smoke/flight.jsonl -flight-report \
		-metrics-out .flight-smoke/m.json \
		-debug-addr 127.0.0.1:6161 > .flight-smoke/run.txt & \
	pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if curl -sf http://127.0.0.1:6161/debug/campaign \
			-o .flight-smoke/console.json; then up=1; break; fi; \
		sleep 0.2; done; \
	if [ "$$up" = 1 ]; then \
		curl -sf -m 2 http://127.0.0.1:6161/debug/campaign/stream \
			| head -c 4096 > .flight-smoke/sse.txt || true; \
	fi; \
	wait $$pid || { echo "flight-smoke: campaign failed"; cat .flight-smoke/run.txt; exit 1; }; \
	[ "$$up" = 1 ] || { echo "flight-smoke: console never came up"; exit 1; }
	grep -q '"campaign"' .flight-smoke/console.json
	$(GO) run ./cmd/experiments -run flightreport \
		-flight-journal .flight-smoke/flight.jsonl \
		-flight-metrics .flight-smoke/m.json > .flight-smoke/report.txt
	cat .flight-smoke/report.txt
	grep -q 'stage latency' .flight-smoke/report.txt || \
		{ echo "flight-smoke: report has no stage-latency table"; exit 1; }
	$(FLIGHT_REPORT) .flight-smoke/run.txt > .flight-smoke/inproc.txt
	$(FLIGHT_REPORT) .flight-smoke/report.txt > .flight-smoke/replay.txt
	[ -s .flight-smoke/inproc.txt ] || \
		{ echo "flight-smoke: campaign printed no flight report"; exit 1; }
	diff .flight-smoke/inproc.txt .flight-smoke/replay.txt || \
		{ echo "flight-smoke: -flight-report differs from the journal replay"; exit 1; }
	grep -q 'span_seconds' .flight-smoke/m.json || \
		{ echo "flight-smoke: metrics snapshot has no span_seconds"; exit 1; }
	grep -q '"kind":"anomaly"' .flight-smoke/flight.jsonl || \
		{ echo "flight-smoke: chaos raised no watchdog anomaly"; exit 1; }
	$(GO) build -o .flight-smoke/mucfuzz ./cmd/mucfuzz
	echo '{"variants":[{"name":"adaptive","sched":"adaptive","edges_per_1k_ticks":1e9}]}' \
		> .flight-smoke/base.json
	$(RESUME_RUN) -checkpoint .flight-smoke/whole.ckpt -flight .flight-smoke/whole.jsonl > /dev/null
	touch .flight-smoke/resumed.jsonl; \
	$(RESUME_RUN) -checkpoint .flight-smoke/resumed.ckpt -flight .flight-smoke/resumed.jsonl \
		> .flight-smoke/cut.txt & pid=$$!; \
	for i in $$(seq 1 1000); do \
		grep -q throughput_regression .flight-smoke/resumed.jsonl && break; sleep 0.01; done; \
	kill -INT $$pid; \
	wait $$pid || { echo "flight-smoke: interrupted campaign failed"; cat .flight-smoke/cut.txt; exit 1; }
	grep -q '^interrupted at step' .flight-smoke/cut.txt || \
		{ echo "flight-smoke: SIGINT landed after the campaign finished"; exit 1; }
	.flight-smoke/mucfuzz -macro -resume .flight-smoke/resumed.ckpt -checkpoint-every 1 \
		-flight .flight-smoke/resumed.jsonl -flight-baseline .flight-smoke/base.json > /dev/null
	cmp .flight-smoke/whole.jsonl .flight-smoke/resumed.jsonl || \
		{ echo "flight-smoke: resumed journal differs from the uninterrupted one"; exit 1; }
	[ "$$(grep -c throughput_regression .flight-smoke/resumed.jsonl)" = 1 ] || \
		{ echo "flight-smoke: the resumed journal does not carry the regression exactly once"; exit 1; }
	@rm -rf .flight-smoke

# serve-smoke proves fuzzing-as-a-service end to end: start the daemon,
# submit two tenants' jobs through the client CLI, poll status, SIGKILL
# the daemon mid-campaign, restart it over the same state dir, and
# require both jobs to finish with a triage report. Job ids are
# deterministic (j0001, j0002) because the ledger assigns sequential
# seqs.
serve-smoke:
	@rm -rf .serve-smoke && mkdir .serve-smoke
	$(GO) build -o .serve-smoke/mucfuzzd ./cmd/mucfuzzd
	$(GO) build -o .serve-smoke/mucfuzzctl ./cmd/mucfuzzctl
	@set -e; \
	ctl=".serve-smoke/mucfuzzctl -addr 127.0.0.1:8377"; \
	.serve-smoke/mucfuzzd -state .serve-smoke/state -addr 127.0.0.1:8377 \
		>.serve-smoke/d1.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if $$ctl health >/dev/null 2>&1; then up=1; break; fi; sleep 0.2; done; \
	[ "$$up" = 1 ] || { echo "serve-smoke: daemon never came up"; cat .serve-smoke/d1.log; exit 1; }; \
	$$ctl submit -tenant alpha -steps 6000 -streams 8; \
	$$ctl submit -tenant beta -steps 6000 -streams 8 -compiler clang; \
	started=0; for i in $$(seq 1 100); do \
		if $$ctl status j0001 | grep -q '"done": [1-9]'; then started=1; break; fi; \
		sleep 0.2; done; \
	[ "$$started" = 1 ] || { echo "serve-smoke: j0001 never progressed"; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "serve-smoke: daemon SIGKILLed mid-campaign; restarting"; \
	.serve-smoke/mucfuzzd -state .serve-smoke/state -addr 127.0.0.1:8377 \
		>.serve-smoke/d2.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if $$ctl health >/dev/null 2>&1; then up=1; break; fi; sleep 0.2; done; \
	[ "$$up" = 1 ] || { echo "serve-smoke: daemon never came back"; cat .serve-smoke/d2.log; exit 1; }; \
	$$ctl watch j0001; \
	$$ctl watch j0002; \
	$$ctl results j0001 | grep -q '"' || { echo "serve-smoke: j0001 has no triage report"; exit 1; }; \
	$$ctl results j0002 | grep -q '"' || { echo "serve-smoke: j0002 has no triage report"; exit 1; }; \
	$$ctl list; \
	kill $$pid; wait $$pid 2>/dev/null || true
	@rm -rf .serve-smoke

# chaos-serve-smoke proves the self-healing service end to end: a
# baseline daemon completes two jobs clean; a second daemon runs the
# same two jobs plus a designated poison job with chaos armed (poison
# slice panics, checkpoint ENOSPC, torn ledger saves), is SIGKILLed
# mid-campaign, and restarted with chaos still armed. The poison job
# must land QUARANTINED while the survivors' flight journals and triage
# reports come out byte-identical to the baseline's.
chaos-serve-smoke:
	@rm -rf .chaos-serve-smoke && mkdir .chaos-serve-smoke
	$(GO) build -o .chaos-serve-smoke/mucfuzzd ./cmd/mucfuzzd
	$(GO) build -o .chaos-serve-smoke/mucfuzzctl ./cmd/mucfuzzctl
	@set -e; \
	ctl=".chaos-serve-smoke/mucfuzzctl -addr 127.0.0.1:8378"; \
	echo "chaos-serve-smoke: baseline daemon"; \
	.chaos-serve-smoke/mucfuzzd -state .chaos-serve-smoke/base -addr 127.0.0.1:8378 \
		>.chaos-serve-smoke/base.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if $$ctl health >/dev/null 2>&1; then up=1; break; fi; sleep 0.2; done; \
	[ "$$up" = 1 ] || { echo "chaos-serve-smoke: baseline never came up"; cat .chaos-serve-smoke/base.log; exit 1; }; \
	$$ctl submit -tenant alpha -steps 4000 -streams 8; \
	$$ctl submit -tenant beta -steps 4000 -streams 8 -compiler clang; \
	$$ctl watch j0001; \
	$$ctl watch j0002; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	echo "chaos-serve-smoke: chaos daemon (poison job + ENOSPC + torn ledger)"; \
	chaosd=".chaos-serve-smoke/mucfuzzd -state .chaos-serve-smoke/chaos -addr 127.0.0.1:8378 \
		-chaos-poison-seq 3 -chaos-ckpt-enospc 5 -chaos-ledger-tear 3"; \
	$$chaosd >.chaos-serve-smoke/c1.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if $$ctl health >/dev/null 2>&1; then up=1; break; fi; sleep 0.2; done; \
	[ "$$up" = 1 ] || { echo "chaos-serve-smoke: chaos daemon never came up"; cat .chaos-serve-smoke/c1.log; exit 1; }; \
	$$ctl submit -tenant alpha -steps 4000 -streams 8; \
	$$ctl submit -tenant beta -steps 4000 -streams 8 -compiler clang; \
	$$ctl submit -tenant alpha -steps 2000 -streams 8; \
	started=0; for i in $$(seq 1 100); do \
		if $$ctl status j0001 | grep -q '"done": [1-9]'; then started=1; break; fi; \
		sleep 0.2; done; \
	[ "$$started" = 1 ] || { echo "chaos-serve-smoke: j0001 never progressed"; exit 1; }; \
	kill -9 $$pid; wait $$pid 2>/dev/null || true; \
	echo "chaos-serve-smoke: daemon SIGKILLed mid-campaign; restarting with chaos still armed"; \
	$$chaosd >.chaos-serve-smoke/c2.log 2>&1 & pid=$$!; \
	up=0; for i in $$(seq 1 100); do \
		if $$ctl health >/dev/null 2>&1; then up=1; break; fi; sleep 0.2; done; \
	[ "$$up" = 1 ] || { echo "chaos-serve-smoke: daemon never came back"; cat .chaos-serve-smoke/c2.log; exit 1; }; \
	$$ctl watch j0001; \
	$$ctl watch j0002; \
	quar=0; for i in $$(seq 1 100); do \
		if $$ctl status j0003 | grep -q '"state": "QUARANTINED"'; then quar=1; break; fi; \
		sleep 0.2; done; \
	[ "$$quar" = 1 ] || { echo "chaos-serve-smoke: poison job never quarantined"; $$ctl status j0003; exit 1; }; \
	$$ctl list | grep -q QUARANTINED || { echo "chaos-serve-smoke: QUARANTINED missing from list"; exit 1; }; \
	[ -s .chaos-serve-smoke/chaos/jobs/j0003/flight.jsonl ] || { echo "chaos-serve-smoke: poison job journal missing"; exit 1; }; \
	[ -s .chaos-serve-smoke/chaos/jobs/j0003/triage.json ] || { echo "chaos-serve-smoke: poison job triage missing"; exit 1; }; \
	for j in j0001 j0002; do \
		cmp .chaos-serve-smoke/base/jobs/$$j/flight.jsonl .chaos-serve-smoke/chaos/jobs/$$j/flight.jsonl \
			|| { echo "chaos-serve-smoke: $$j journal diverged from baseline"; exit 1; }; \
		cmp .chaos-serve-smoke/base/jobs/$$j/triage.json .chaos-serve-smoke/chaos/jobs/$$j/triage.json \
			|| { echo "chaos-serve-smoke: $$j triage diverged from baseline"; exit 1; }; \
	done; \
	echo "chaos-serve-smoke: survivors byte-identical, poison quarantined"; \
	kill $$pid; wait $$pid 2>/dev/null || true
	@rm -rf .chaos-serve-smoke

clean:
	$(GO) clean ./...
