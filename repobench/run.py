#!/usr/bin/env python3
"""Repository benchmark driver.

    python3 repobench/run.py --workload macro_gcc --seed 7 --seconds 10 --trace 0

Builds the Go benchmark program (repobench/, its own module) into
.bench_build/ and runs the workload in fresh processes. A campaign
workload runs one fixed-budget campaign per process for each of
CAMPAIGN_SUBSEEDS sub-seeds derived from --seed (one cycle), and more
whole cycles while they fit in --seconds; daemon_jobs runs one
in-process daemon for --seconds. Every iteration checks its outputs.
The last stdout line is one JSON object with correct/attempted/failed
and the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). See README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin", "repobench")
WORKLOADS = ("macro_gcc", "micro_clang", "daemon_jobs")
# Sub-seeds per cycle. Coverage, crash counts and speed all depend on
# the seed's corpus, and one iteration's wall time varies by several
# percent on a shared host; pooling two dozen short campaigns keeps a
# run's figures representative of the workload, not of one draw.
CAMPAIGN_SUBSEEDS = 24
CHILD_TIMEOUT = 120
# A traced daemon run splits its time between an untraced and a
# traced closed loop, capped so the whole run stays short.
DAEMON_TRACE_SECONDS = 5.0


def go_env():
    """Keep every Go cache and temp file inside the checkout."""
    env = dict(os.environ)
    env.pop("GOMAXPROCS", None)  # the program sets GOMAXPROCS = nproc itself
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomod"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOWORK="off", GOTOOLCHAIN="local", GOFLAGS="-mod=readonly",
               GOENV="off", CGO_ENABLED="0")
    return env


def build(env):
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                       capture_output=True, text=True, timeout=850)
    if p.returncode != 0:
        sys.stderr.write(p.stdout + p.stderr)
        sys.exit("repobench: build failed")


def child(env, workload, seed, trace, seconds=None):
    """Run one iteration in a fresh process and return its report."""
    state = os.path.join(BUILD, "run", "%d-%d" % (os.getpid(), time.monotonic_ns()))
    cmd = [BIN, "-workload", workload, "-seed", str(seed), "-state", state]
    if trace:
        cmd.append("-trace")
    if seconds is not None:
        cmd += ["-seconds", repr(seconds)]
    try:
        p = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    finally:
        shutil.rmtree(state, ignore_errors=True)
    if p.returncode != 0:
        raise RuntimeError("iteration failed: %s" % p.stderr.strip()[-2000:])
    return json.loads(p.stdout.strip().splitlines()[-1])


def sub_seed(seed, i):
    return seed * 1000 + i


def cycles(env, args):
    """Whole cycles of campaign iterations: the first always, further
    ones while another fits in --seconds."""
    out, t0 = [], time.monotonic()
    while True:
        c0 = time.monotonic()
        out.append([child(env, args.workload, sub_seed(args.seed, i), False)
                    for i in range(CAMPAIGN_SUBSEEDS)])
        took = time.monotonic() - c0
        if time.monotonic() - t0 + took > args.seconds:
            return out


def tail(xs):
    """Highest percentile with at least ten samples beyond it. Below 20
    samples that percentile falls under the median, so the maximum is
    reported instead. Returns (value, percentile)."""
    s = sorted(xs)
    if len(s) < 20:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []

    def add(self, rep):
        self.attempted += rep["attempted"]
        self.failed += rep["failed"]
        self.failures += rep.get("failures") or []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def check_digests(tally, reps, base, what):
    """Every iteration of one (workload, seed) must reproduce the digest
    of the matching iteration in base."""
    for r, b in zip(reps, base):
        tally.check(r["digest"] == b["digest"],
                    "%s seed %d digest %s != %s" % (what, r["seed"], r["digest"], b["digest"]))


def metric(v, unit):
    return {"value": v, "unit": unit}


def end_to_end(args, env, tally):
    med = statistics.median
    if args.workload == "daemon_jobs":
        r = child(env, args.workload, args.seed, False, args.seconds)
        tally.add(r)
        steps_per_s = r["steps"] / r["wall_s"]
        edges_per_s = r["edges_done"] / r["wall_s"]
        final_edges, crashes, digest = r["final_edges"], r["unique_crashes"], r["digest"]
        print("distinct crash signatures over the spec list: %d" % len(r["crash_sigs"]))
        lats = r["job_latencies"]
        setups = r["setup_samples"]
        rss = r["peak_rss_mb"]
        n_iter, gmp, first_digest = 1, r["gomaxprocs"], r["digest"]
    else:
        cs = cycles(env, args)
        for c in cs:
            for r in c:
                tally.add(r)
        for c in cs[1:]:
            check_digests(tally, c, cs[0], "cycle")
        first = cs[0]
        reps = [r for c in cs for r in c]
        steps_per_s = med([r["steps"] / r["wall_s"] for r in reps])
        edges_per_s = med([r["edges_done"] / r["wall_s"] for r in reps])
        final_edges = statistics.mean(r["final_edges"] for r in first)
        crashes = statistics.mean(r["unique_crashes"] for r in first)
        print("distinct crash signatures over the cycle: %d"
              % len({s for r in first for s in r["crash_sigs"]}))
        digest = hashlib.sha256(" ".join(r["digest"] for r in first).encode()).hexdigest()[:16]
        # For a campaign workload the job is one fixed-budget campaign,
        # from set-up until its last step.
        lats = [r["setup_s"] + r["wall_s"] for r in reps]
        setups = [x for r in reps for x in r["setup_samples"]]
        rss = med([r["peak_rss_mb"] for r in reps])
        n_iter, gmp, first_digest = len(reps), reps[0]["gomaxprocs"], reps[0]["digest"]
    tail_v, tail_p = tail(lats)
    print("iterations: %d, digest %s, first iteration's digest %s, gomaxprocs %d"
          % (n_iter, digest, first_digest, gmp))
    print("job latency: %d samples, p50 %.4f s, tail p%.1f %.4f s"
          % (len(lats), med(lats), tail_p, tail_v))
    return {
        "setup_s": metric(med(setups), "s"),
        "steps_per_s": metric(steps_per_s, "1/s"),
        "edges_per_s": metric(edges_per_s, "1/s"),
        "final_edges": metric(final_edges, "count"),
        "unique_crashes": metric(crashes, "count"),
        "peak_rss_mb": metric(rss, "MB"),
        "job_latency_p50_s": metric(med(lats), "s"),
        "job_latency_tail_s": metric(tail_v, "s"),
    }


def per_layer(args, env, tally):
    """Alternate untraced and traced iterations; layer metrics are the
    medians over the traced ones, overhead compares the two sides."""
    plain, traced = [], []
    if args.workload == "daemon_jobs":
        secs = min(args.seconds / 2, DAEMON_TRACE_SECONDS)
        plain.append(child(env, args.workload, args.seed, False, secs))
        traced.append(child(env, args.workload, args.seed, True, secs))
    else:
        t0 = time.monotonic()
        while not traced or (time.monotonic() - t0 < args.seconds
                             and len(traced) < CAMPAIGN_SUBSEEDS):
            seed = sub_seed(args.seed, len(traced))
            plain.append(child(env, args.workload, seed, False))
            traced.append(child(env, args.workload, seed, True))
    for r in plain + traced:
        tally.add(r)
    check_digests(tally, traced, plain, "traced vs untraced")
    med = statistics.median
    names = sorted(traced[0]["layers"])
    layers = {n: med([r["layers"][n] for r in traced]) for n in names}
    rate = lambda rs: sum(r["steps"] for r in rs) / sum(r["wall_s"] for r in rs)
    layers["trace.overhead_share"] = rate(plain) / rate(traced) - 1
    layers["runtime.alloc_mb_per_ktick"] = med(
        [r["alloc_mb"] / (max(r["ticks"] or r["steps"], 1) / 1000) for r in plain])
    layers["runtime.gc_cpu_share"] = med([r["gc_cpu_share"] for r in plain])
    for n in names:
        note = traced[0].get("notes", {}).get(n)
        if note:
            print("note %s: %s" % (n, note))
    print("trace: %d untraced + %d traced iterations, first iteration's digest %s, gomaxprocs %d"
          % (len(plain), len(traced), traced[0]["digest"], traced[0]["gomaxprocs"]))
    return {n: metric(v, unit_of(n)) for n, v in sorted(layers.items())}


def unit_of(name):
    """Unit from the metric's base name (the part after the layer)."""
    base = name.split(".")[1]
    if base.endswith("per_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base == "alloc_mb_per_ktick":
        return "MB/ktick"
    if base.endswith("_mb"):
        return "MB"
    if base.endswith("_kb"):
        return "KB"
    if "ratio" in base or "share" in base:
        return "ratio"
    if base == "ir_instrs":
        return "instrs"
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("repobench: no go.mod at the checkout root; run from the repository root")
    os.chdir(ROOT)
    env = go_env()
    build(env)
    tally = Tally()
    if args.trace:
        metrics = per_layer(args, env, tally)
    else:
        metrics = end_to_end(args, env, tally)
    for f in tally.failures[:20]:
        print("FAILED: " + f)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
