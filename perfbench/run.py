#!/usr/bin/env python3
"""The dLTE simulator's benchmark: one command, three closed batch workloads.

    python3 perfbench/run.py --workload metro --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. It builds perfbench/ (which compiles the
repo's src/ out of tree, Release) into .bench_build/, derives the workload's
configuration from --seed, and runs one job per process (perfbench/job.cpp)
until --seconds have passed: every job is one scenario at a fixed size, on
4 shards and 4 worker threads, run to its horizon. Each job's merged-metrics
digest is checked against the golden digest for (workload, size, seed) in
perfbench/golden.json, or, for a seed without one, against a 1-shard run of
the same configuration; each job's workload invariants must hold too.

--trace 0 prints the end-to-end metrics (medians over the jobs), --trace 1
the per-layer metrics of the traced jobs. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and every metric.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
JOB = os.path.join(BUILD, "dlte_perfjob")
GOLDEN = os.path.join(HERE, "golden.json")

SHARDS = 4
THREADS = 4
JOB_TIMEOUT_S = 150
# Timed jobs per run, whatever --seconds says: medians need a few samples.
MIN_JOBS = 3
# A job during which the hypervisor took more than this share of the VM's
# CPU time (steal, /proc/stat) measured the host, not the simulator: its
# timings are left out of the medians (its output is still checked). A
# barrier-synchronised job slows far more than the share itself, because
# one descheduled vCPU stalls every shard at the next barrier.
STEAL_LIMIT = 0.01
STEAL_WAIT_S = 75

WORKLOADS = ("metro", "registry_churn", "town_attach")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics and their units. Every traced run reports all of them;
# a layer the workload never reaches reports 0.
LABELS = ("workload.attach", "transport.flow_train", "metro.report",
          "par.delivery", "town.attach", "town.x2_report", "epc.mme",
          "ran.enodeb", "core.s1", "net.hop")
PER_LAYER = (
    [("sim.events", "count"), ("sim.queue_resizes", "count"),
     ("sim.events_per_busy_s", "1/s")]
    + [("sim.label.%s.executed" % label, "count") for label in LABELS]
    + [("par.windows", "count"), ("par.messages", "count"),
       ("par.max_exchange", "count"), ("par.run_lane_s", "s"),
       ("par.barrier_wait_s", "s"), ("par.wait_share", "ratio"),
       ("par.imbalance", "ratio"), ("par.coordinator_s", "s"),
       ("par.window_us_p50", "us"), ("par.window_us_p99", "us"),
       ("par.speedup", "ratio")]
    + [("registry.%s_us_%s" % (call, stat), "us")
       for call in ("grant", "heartbeat", "occupancy")
       for stat in ("p50", "p99", "total")]
    + [("registry.grants_issued", "count"), ("registry.heartbeats_ok", "count"),
       ("registry.heartbeats_failed", "count"),
       ("registry.grants_lapsed", "count"),
       ("registry.cache.root_sheds", "count"),
       ("registry.cache.stale_serves", "count"),
       ("registry.cache.lookups", "count"),
       ("registry.cache.hit_ratio", "ratio")]
    + [("workload.ues_attached", "count"),
       ("transport.flows_completed", "count"),
       ("transport.bytes_delivered", "B"),
       ("workload.regrant_batches", "count"),
       ("workload.queries_answered", "count")]
    + [("epc.attaches_completed", "count"), ("epc.messages_processed", "count"),
       ("epc.nas_retransmissions", "count"), ("epc.cpu_us_per_attach", "us"),
       ("crypto.setup_us_per_ue", "us")]
    + [("obs.trace_overhead", "ratio")])


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def workload_flags(workload, seed, size):
    """The job's configuration, generated from the seed alone.

    "full" is the benchmark's fixed size; "tiny" exists for selftest.py.
    metro and town_attach hand the seed to the scenario's own RNG streams.
    The registry plane has no RNG, so the seed picks which interior zone
    goes dark and when (18-22 s): the same work, a different timeline.
    """
    tiny = size == "tiny"
    if workload == "metro":
        flags = {"aps": 200 if tiny else 10000,
                 "ues-per-ap": 10 if tiny else 100,
                 "horizon-ms": 5000 if tiny else 8000}
    elif workload == "town_attach":
        flags = {"aps": 16 if tiny else 1024,
                 "ues-per-ap": 8 if tiny else 64,
                 "horizon-ms": 1000 if tiny else 5000}
    else:
        rng = random.Random("registry_churn:%d" % seed)
        zones = 4 if tiny else 8
        zx = rng.randrange(1, zones - 1)
        zy = rng.randrange(1, zones - 1)
        flags = {"blocks": 16 if tiny else 512,
                 "leases-per-block": 32 if tiny else 1024,
                 "zones": zones,
                 "horizon-ms": 75000,
                 "storm-zone": zy * zones + zx,
                 "outage-at-ms": 18000 + 5 * rng.randrange(800)}
    flags["seed"] = seed
    return flags


def build():
    """Configure (once) and build the job runner; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no simulator sources (src/) next to perfbench/")
        return False
    if not shutil.which("cmake"):
        log("cmake not found")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "dlte_perfjob",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return os.access(JOB, os.X_OK)


def host_steal_ticks():
    """CPU time the hypervisor has taken from this VM, or None if unknown."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, ValueError, IndexError):
        return None


def run_job(workload, flags, shards, threads, traced):
    """One job in a fresh process; returns its JSON record or None.

    The record gains "steal_share": the share of the VM's CPU time the host
    took while the job ran (0 where /proc/stat has no steal column).
    """
    argv = [JOB, "--workload", workload, "--shards", str(shards),
            "--threads", str(threads), "--traced", "1" if traced else "0"]
    for key, value in flags.items():
        argv += ["--" + key, str(value)]
    steal0 = host_steal_ticks()
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s job timed out" % workload)
        return None
    wall = time.monotonic() - start
    steal1 = host_steal_ticks()
    if proc.returncode != 0:
        log("%s job exited %d: %s" % (workload, proc.returncode,
                                      proc.stderr.strip()[-500:]))
        return None
    try:
        record = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("%s job printed no result" % workload)
        return None
    record["steal_share"] = 0.0
    if steal0 is not None and steal1 is not None and wall > 0:
        cpu_ticks = os.sysconf("SC_CLK_TCK") * wall * (os.cpu_count() or 1)
        record["steal_share"] = (steal1 - steal0) / cpu_ticks
    return record


def undisturbed(records):
    """The jobs whose timings count: those under STEAL_LIMIT or, when fewer
    than MIN_JOBS are, the MIN_JOBS least disturbed ones."""
    clean = [r for r in records if r["steal_share"] <= STEAL_LIMIT]
    if len(clean) >= MIN_JOBS:
        return clean
    return sorted(records, key=lambda r: r["steal_share"])[:MIN_JOBS]


def job_ok(record, expected_digest):
    if record is None:
        return False
    if not record["invariants_ok"]:
        log("invariant failed: " + record["invariant_detail"])
        return False
    if expected_digest is not None and record["digest"] != expected_digest:
        log("digest %s != expected %s" % (record["digest"], expected_digest))
        return False
    return True


def load_golden(path):
    if not os.path.isfile(path):
        return {}
    with open(path) as f:
        return json.load(f)


def golden_key(workload, size, seed):
    return "%s/%s/%d" % (workload, size, seed)


def source_digest():
    """sha256 over src/ and perfbench/: a revision id without git."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def record_golden(path):
    golden = load_golden(path)
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            flags = workload_flags(workload, 42, size)
            record = run_job(workload, flags, 1, 1, False)
            if not job_ok(record, None):
                log("cannot record %s/%s" % (workload, size))
                return 1
            golden[golden_key(workload, size, 42)] = record["digest"]
            log("%s = %s" % (golden_key(workload, size, 42), record["digest"]))
    with open(path, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--golden", default=GOLDEN,
                        help="golden digest file (selftest.py swaps it)")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record the seed-42 golden digests at 1 "
                             "shard after an intended output change")
    args = parser.parse_args()
    if not build():
        return 2
    if args.record_golden:
        return record_golden(args.golden)
    if args.workload is None:
        parser.error("--workload is required")

    workload = args.workload
    flags = workload_flags(workload, args.seed, args.size)
    golden = load_golden(args.golden).get(
        golden_key(workload, args.size, args.seed))
    print("provenance: " + json.dumps({
        "workload": workload, "seed": args.seed, "size": args.size,
        "config": flags, "shards": SHARDS, "threads": THREADS,
        "nproc": os.cpu_count(), "git_revision": git_revision(),
        "source_digest": source_digest(),
        "check": "golden" if golden else "1-shard vs 4-shard"}), flush=True)

    attempted = 0
    failed = 0
    expected = golden
    reference = None
    if args.trace or golden is None:
        # The 1-shard run: the digest reference for a seed without a golden
        # digest, and the numerator of par.speedup in a traced run.
        reference = run_job(workload, flags, 1, 1, False)
        attempted += 1
        if not job_ok(reference, golden):
            failed += 1
            reference = None
        elif expected is None:
            expected = reference["digest"]

    untraced = []
    traced = []
    start = time.monotonic()
    # Past the deadline a run stops once it has MIN_JOBS undisturbed jobs
    # (of each kind). While the host keeps stealing CPU it waits for them,
    # up to STEAL_WAIT_S more: steal bursts seen on a shared 4-vCPU host
    # lasted about a minute and a half.
    deadline = start + args.seconds
    last_call = deadline + STEAL_WAIT_S
    jobs = 0
    while True:
        # Traced runs alternate untraced and traced jobs, so the overhead
        # ratio compares jobs that ran under the same host conditions.
        trace_this = args.trace == 1 and jobs % 2 == 1
        jobs += 1
        record = run_job(workload, flags, SHARDS, THREADS, trace_this)
        attempted += 1
        if expected is None and record is not None:
            # The reference failed: no digest to compare against.
            record = None
        if job_ok(record, expected):
            (traced if trace_this else untraced).append(record)
        else:
            failed += 1
        groups = (untraced, traced) if args.trace else (untraced,)
        clean = min(sum(r["steal_share"] <= STEAL_LIMIT for r in group)
                    for group in groups)
        measured = min(len(group) for group in groups)
        now = time.monotonic()
        if failed >= MIN_JOBS and now >= deadline:
            break
        if clean >= MIN_JOBS and now >= deadline:
            break
        if measured >= MIN_JOBS and now >= last_call:
            break
    used_untraced = undisturbed(untraced)
    used_traced = undisturbed(traced)
    print("%-14s jobs %d, timings from %d untraced + %d traced jobs with the "
          "least host steal (limit %.0f%%; max used %.2f%%)" % (
              workload, jobs, len(used_untraced), len(used_traced),
              100 * STEAL_LIMIT,
              100 * max([r["steal_share"] for r in
                         used_untraced + used_traced] or [0.0])))

    metrics = {}
    if args.trace == 0:
        print("%-14s %-10s %12s %12s %12s %4s" % (
            "workload", "metric", "median", "q1", "q3", "n"))
        for name, unit in END_TO_END:
            values = [r[name] for r in used_untraced]
            median = statistics.median(values) if values else 0.0
            q1, q3 = quartiles(values) if values else (0.0, 0.0)
            print("%-14s %-10s %12.6f %12.6f %12.6f %4d" % (
                workload, name, median, q1, q3, len(values)))
            metrics[name] = {"value": median, "unit": unit}
    else:
        layers = {}
        for name, unit in PER_LAYER:
            values = [r["layers"][name] for r in used_traced
                      if name in r["layers"]]
            if not values:
                layers[name] = 0
            elif unit in ("count", "B"):
                layers[name] = values[0]  # Exact: equal in every job.
            else:
                layers[name] = statistics.median(values)
        untraced_run = (statistics.median([r["run_s"] for r in used_untraced])
                        if used_untraced else 0.0)
        traced_run = (statistics.median([r["run_s"] for r in used_traced])
                      if used_traced else 0.0)
        layers["par.speedup"] = (reference["run_s"] / untraced_run
                                 if reference and untraced_run else 0.0)
        layers["obs.trace_overhead"] = (traced_run / untraced_run - 1.0
                                        if traced_run and untraced_run
                                        else 0.0)
        for name, unit in PER_LAYER:
            print("%-14s %-40s %16.6f %s" % (workload, name, layers[name],
                                             unit))
            metrics[name] = {"value": layers[name], "unit": unit}
        print("%-14s untraced run_s %.6f (n=%d), traced run_s %.6f (n=%d), "
              "1-shard run_s %.6f" % (
                  workload, untraced_run, len(used_untraced), traced_run,
                  len(used_traced), reference["run_s"] if reference else 0.0))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
