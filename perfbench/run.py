#!/usr/bin/env python3
"""The repository benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload german_d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the measuring driver (driver.cpp) from source
into .bench_build at the root of the checkout, runs the workload for
about --seconds seconds, checks the program's outputs, and prints as the
last line of stdout one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, measured
with the library's profiler off; --trace 1 reports the per-layer
metrics. Provenance and a human-readable table go to stderr, and a
provenance JSON line precedes the result on stdout. LAYERS.md defines
every metric and the end-to-end metric each layer should move.

--self-test runs every workload at a tiny size, in both modes, and checks
that each emits exactly the metrics BENCHMARK.json lists: the names and
units of every result come from BENCHMARK.json, and a metric a workload
does not set fails the run.
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
DRIVER = os.path.join(BUILD, "perfbench")

# Wall-clock budget of one measurement, and of the build a first run in a
# fresh checkout also makes.
DEADLINE_S = 170.0
BUILD_TIMEOUT_S = 700.0

GERMAN_STATES = 1322104   # German(2) at d = 4, every worker count
GERMAN_NODES = 2536433    # serial search only; races move it with workers
GERMAN_TERMINALS = 0      # the ghost driver never lets German quiesce
EMPTY_SET_DIGEST = "cbf29ce484222325"  # driver's digest of no hashes
W4 = 4
# Set-up takes about 0.1 ms. On a shared virtual machine one or two vCPUs
# at a time run it ≈1.5× slow, for stretches of seconds (a 4-vCPU KVM
# guest), and a child process starts near its parent, so one run's
# set-ups could all land on a slow vCPU. Set-up is therefore measured in
# fresh processes, one pinned to each of up to this many CPUs, at points
# spread across the run (before each verdict, or before each part of the
# host workload), and the median is reported.
SETUP_CPUS = 8
# The host workload's parts, one process each (see driver.cpp runPubSub).
PUBSUB_PARTS = ("ladder", "nominal", "ladder", "ladder")

# Per-layer metrics of the layers a workload does not run; they read 0.
NOT_RUN_BY_CHECKER = (
    "host.p99_us", "host.add_event_p50_us", "host.add_event_p99_us",
    "host.fanout_us", "host.slices_per_event", "host.queue_highwater",
    "host.mailbox_spills", "host.lateness_us",
)
NOT_RUN_BY_HOST = (
    "search.verdict_s", "search.search_s", "search.teardown_s",
    "search.nodes", "search.states", "search.slices", "search.dedup_ratio",
    "search.visited_mb", "search.steals", "search.contention_s",
    "search.other_s", "search.profile_slice_s", "parallel.speedup",
    "parallel.serial_verdict_s", "parallel.w4_verdict_s",
)

WORKLOADS = ("german_d4", "german_d4_w4", "pubsub_open")


def metric_units():
    """{"0": end-to-end, "1": per-layer} metric name -> unit, as
    BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}


class BenchError(Exception):
    """The run cannot produce a comparable result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Clock:
    """Remaining wall-clock budget shared by every child process."""

    def __init__(self):
        self.start = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.start

    def left(self):
        return DEADLINE_S - self.elapsed()


def run_child(cmd, clock, cpu=None):
    """Runs one child to completion (killed at the deadline), pinned to
    \p cpu if given; returns the JSON object on the last line of its
    stdout."""
    left = clock.left()
    if left <= 1:
        raise BenchError("out of time before " + " ".join(cmd[:2]))
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=left, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("no JSON result from " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under %s/src" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)])
    start = time.monotonic()
    with open(logpath, "a") as out:
        for cmd in steps:
            left = BUILD_TIMEOUT_S - (time.monotonic() - start)
            try:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT,
                                    timeout=max(1.0, left)).returncode
            except subprocess.TimeoutExpired:
                raise BenchError("build timed out")
            if rc != 0:
                raise BenchError("build failed; see %s" % logpath)


def source_digest():
    """sha256 over the library and benchmark sources, so a result names
    the code it measured even where the checkout is not a git clone."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def provenance(clock):
    p = run_child([DRIVER, "provenance"], clock)
    p["git_sha"] = git_sha()
    p["source_digest"] = source_digest()
    p["nproc"] = os.cpu_count()
    return p


class SetupSamples:
    """Set-up and compile times from fresh set-up processes, taken at
    points spread across the run, one process on each CPU at each."""

    def __init__(self, clock, program):
        self.clock = clock
        self.program = program
        self.cpus = sorted(os.sched_getaffinity(0))[:SETUP_CPUS]
        self.setup, self.compile = [], []

    def take(self):
        for cpu in self.cpus:
            r = run_child([DRIVER, "setup", "--program", self.program],
                          self.clock, cpu)
            self.setup.append(r["setup_s"])
            self.compile.append(r["compile_s"])

    def setup_s(self):
        log("set-ups (us): " + " ".join("%.1f" % (x * 1e6)
                                        for x in self.setup))
        return statistics.median(self.setup)

    def compile_s(self):
        return statistics.median(self.compile)


# --------------------------------------------------------------------------
# Checker workloads: German(2), delay bound 4, serial or 4 workers.
# --------------------------------------------------------------------------

def verdict(clock, workers, profile, delay=None):
    cmd = [DRIVER, "verdict", "--workers", str(workers), "--profile",
           "1" if profile else "0"]
    if delay is not None:
        cmd += ["--delay", str(delay)]
    return run_child(cmd, clock)


def verdict_failures(v, workers, quick):
    """Why one verdict is wrong (empty when it is right)."""
    why = []
    if v["error_found"]:
        why.append("unexpected error: " + v["error"])
    if not v["exhausted"]:
        why.append("search not exhausted")
    if v["workers_used"] != workers:
        why.append("ran %d workers, not %d" % (v["workers_used"], workers))
    if not quick:
        if v["terminals"] != GERMAN_TERMINALS or \
                v["terminal_digest"] != EMPTY_SET_DIGEST:
            why.append("terminal set differs from the serial one")
        if v["states"] != GERMAN_STATES:
            why.append("states %d != %d" % (v["states"], GERMAN_STATES))
        if workers == 1 and v["nodes"] != GERMAN_NODES:
            why.append("nodes %d != %d" % (v["nodes"], GERMAN_NODES))
    return why


def checker_run(args, clock, workers, quick):
    """Repeats fresh-process verdicts for --seconds; returns (metrics,
    attempted, failed)."""
    delay = 1 if quick else None
    setups = SetupSamples(clock, "german")
    runs, plain, profiled, failed = [], [], [], 0
    t_end = clock.elapsed() + (0 if quick else args.seconds)

    def one(profile):
        nonlocal failed
        setups.take()
        v = verdict(clock, workers, profile, delay)
        runs.append(v)
        why = verdict_failures(v, workers, quick)
        if why:
            failed += 1
            log("WRONG verdict (workers=%d): %s" % (workers, "; ".join(why)))
        return v

    if args.trace:
        micro = run_child([DRIVER, "micro", "--seed", str(args.seed)], clock)
        while True:
            plain.append(one(False))
            profiled.append(one(True))
            if clock.elapsed() >= t_end:
                break
        # The other worker count, once, for parallel.speedup.
        other_workers = 1 if workers == W4 else W4
        other = verdict(clock, other_workers, False, delay)
        runs.append(other)
        why = verdict_failures(other, other_workers, quick)
        if why:
            failed += 1
            log("WRONG verdict (workers=%d): %s"
                % (other_workers, "; ".join(why)))
        if quick:
            # No pinned counts at d=1: serial and 4 workers must agree.
            seen = {(r["states"], r["terminal_digest"]) for r in runs}
            if len(seen) != 1:
                failed += 1
                log("WRONG: states/terminals differ across runs: %s" % seen)
        m = trace_metrics(workers, plain, profiled, other, micro)
        m["frontend.compile_s"] = setups.compile_s()
        m.update({name: 0.0 for name in NOT_RUN_BY_CHECKER})
        return m, len(runs), failed

    while True:
        plain.append(one(False))
        if clock.elapsed() >= t_end:
            break
    verdicts = [r["verdict_s"] for r in plain]
    med = statistics.median(verdicts)
    metrics = {
        "setup_s": setups.setup_s(),
        "p50_us": med * 1e6,
        # Distinct states (pinned by the correctness gate) per second of
        # verdict: it mirrors p50_us, and cannot fall because a change
        # reaches the same states with less work.
        "max_rate_eps": statistics.median(r["states"] / r["verdict_s"]
                                          for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    log("verdicts (s): " + " ".join("%.3f" % x for x in verdicts))
    return metrics, len(runs), failed


def trace_metrics(workers, plain, profiled, other, micro):
    med = statistics.median
    verdict_s = med(r["verdict_s"] for r in plain)
    search_s = med(r["search_s"] for r in plain)
    nodes = med(r["nodes"] for r in plain)
    slices = med(r["slices"] for r in plain)
    states = plain[0]["states"]
    # Outside-in estimate of the search's step, copy and hash time: the
    # per-call costs times the counts, spread over the workers.
    estimate = (slices * micro["step_ns"] + nodes *
                (micro["incremental_ns"] + micro["config_copy_ns"])) \
        * 1e-9 / workers
    serial = plain if workers == 1 else [other]
    w4 = plain if workers == W4 else [other]
    serial_s = med(r["verdict_s"] for r in serial)
    w4_s = med(r["verdict_s"] for r in w4)
    m = layer_metrics_from_micro(micro)
    m.update({
        "search.verdict_s": verdict_s,
        "search.search_s": search_s,
        "search.teardown_s": med(r["verdict_s"] - r["search_s"]
                                 for r in plain),
        "search.nodes": nodes,
        "search.states": states,
        "search.slices": slices,
        "search.dedup_ratio": states / nodes if nodes else 0,
        "search.visited_mb": med(r["visited_mb"] for r in plain),
        "search.steals": med(r["steals"] for r in plain),
        "search.contention_s": med(r["contention_s"] for r in plain),
        "search.other_s": search_s - estimate,
        "search.profile_slice_s": med(r["profile_slice_s"]
                                      for r in profiled),
        "trace_overhead": med(r["verdict_s"] for r in profiled) /
        verdict_s - 1,
        "parallel.speedup": serial_s / w4_s,
        "parallel.serial_verdict_s": serial_s,
        "parallel.w4_verdict_s": w4_s,
    })
    if m["search.other_s"] < 0:
        log("note: outside-in estimates (%.3f s) exceed search_s (%.3f s)"
            % (estimate, search_s))
    return m


def layer_metrics_from_micro(micro):
    """The runtime and statehash costs from the seeded walk."""
    return {
        "runtime.step_ns": micro["step_ns"],
        "runtime.config_copy_ns": micro["config_copy_ns"],
        "runtime.enqueue_ns.d1": micro["enqueue_ns_d1"],
        "runtime.enqueue_ns.d256": micro["enqueue_ns_d256"],
        "statehash.incremental_ns": micro["incremental_ns"],
        "statehash.fresh_ns": micro["fresh_ns"],
        "statehash.serialize_ns": micro["serialize_ns"],
    }


# --------------------------------------------------------------------------
# Host workload: open-loop publishes into K Broker groups, serial pump.
# --------------------------------------------------------------------------

def pubsub_run(args, clock, quick):
    """Runs the host workload's parts in turn, one process each, with
    set-up processes before each part."""
    seconds = 1.0 if quick else args.seconds
    setups = SetupSamples(clock, "pubsub")
    parts = ("traced",) if args.trace else PUBSUB_PARTS
    runs = []
    attempted = failed = 0
    for i, part in enumerate(parts):
        setups.take()
        r = run_child([DRIVER, "pubsub", "--seed",
                       str(args.seed * len(PUBSUB_PARTS) + i), "--seconds",
                       repr(seconds), "--part", part], clock)
        attempted += r["attempted"]
        if r["host_error"]:
            failed += r["attempted"]
            log("WRONG: the host entered an error configuration")
        else:
            failed += r["failed"]
        runs.append(r)
    nominal = runs[parts.index("traced" if args.trace else "nominal")]
    if not nominal["nominal_valid"]:
        raise BenchError("the load generator fell behind its schedule at "
                         "the nominal rate (lateness p99 %.1f us); the "
                         "latencies measured it, not the host"
                         % nominal["lateness_us"])
    if args.trace:
        micro = run_child([DRIVER, "micro", "--seed", str(args.seed)], clock)
        m = layer_metrics_from_micro(micro)
        m.update({name: 0.0 for name in NOT_RUN_BY_HOST})
        m.update({
            "frontend.compile_s": setups.compile_s(),
            "trace_overhead": nominal["trace_overhead"],
            "host.p99_us": nominal["p99_us"],
            "host.add_event_p50_us": nominal["add_event_p50_us"],
            "host.add_event_p99_us": nominal["add_event_p99_us"],
            "host.fanout_us": nominal["fanout_us"],
            "host.slices_per_event": nominal["slices_per_event"],
            "host.queue_highwater": nominal["queue_highwater"],
            "host.mailbox_spills": nominal["mailbox_spills"],
            "host.lateness_us": nominal["lateness_us"],
        })
        return m, attempted, failed
    return {
        "setup_s": setups.setup_s(),
        "p50_us": nominal["p50_us"],
        "max_rate_eps": max(r["max_rate_eps"] for r in runs
                            if "max_rate_eps" in r),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }, attempted, failed


def measure(args, clock, quick=False):
    if args.workload == "german_d4":
        return checker_run(args, clock, 1, quick)
    if args.workload == "german_d4_w4":
        return checker_run(args, clock, W4, quick)
    return pubsub_run(args, clock, quick)


def result_line(metrics, trace, attempted, failed, prov):
    """The result object; its metrics are exactly those BENCHMARK.json
    lists for the mode, and a name the workload did not set is an error."""
    units = metric_units()["1" if trace else "0"]
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError("metrics not in BENCHMARK.json: %s; not set: %s"
                         % (extra, missing))
    correct = failed == 0 and prov["valid"]
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }


def print_table(workload, result):
    log("%-26s %18s  %s" % ("metric (%s)" % workload, "value", "unit"))
    for name, m in result["metrics"].items():
        log("%-26s %18.6g  %s" % (name, m["value"], m["unit"]))
    rate = result["failed"] / result["attempted"]
    log("%-26s %18.6g  %s" % ("error_rate", rate, "ratio"))


def self_test(clock):
    """Every workload at a tiny size, both modes: each must set exactly
    the metrics BENCHMARK.json lists, and every output must be correct."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    problems = []
    if sorted(names) != sorted(WORKLOADS):
        problems.append("workloads %s != %s" % (names, list(WORKLOADS)))
    prov = provenance(clock)
    for workload in WORKLOADS:
        for trace in (False, True):
            args = argparse.Namespace(workload=workload, seed=7,
                                      seconds=1, trace=trace)
            try:
                metrics, attempted, failed = measure(args, clock, quick=True)
                res = result_line(metrics, trace, attempted, failed, prov)
            except BenchError as e:
                problems.append("%s trace %d: %s" % (workload, trace, e))
                continue
            if not res["correct"]:
                problems.append("%s trace %d: incorrect output"
                                % (workload, trace))
            log("self-test %s trace %d: %d metrics, %d/%d failed"
                % (workload, trace, len(res["metrics"]), failed, attempted))
    for p in problems:
        log("SELF-TEST FAIL: " + p)
    print("self-test %s" % ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        build()
        clock = Clock()  # the first run's build is not part of the budget
        if args.self_test:
            return self_test(clock)
        prov = provenance(clock)
        log("provenance: " + json.dumps(prov))
        if not prov["valid"]:
            raise BenchError("not a Release build without sanitizers (%s, "
                             "sanitizer %s): numbers are not comparable"
                             % (prov["build_type"], prov["sanitizer"]))
        metrics, attempted, failed = measure(args, clock)
        result = result_line(metrics, args.trace, attempted, failed, prov)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 1
    print_table(args.workload, result)
    print(json.dumps({"provenance": prov, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
