#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes (a few seconds once built).

    python3 perfbench/selftest.py

For each workload it checks that
  * an untraced run prints every end-to-end metric of BENCHMARK.json with
    its unit, and a traced run every per-layer metric;
  * a run checked against a wrong golden digest (seed 42 against a
    corrupted one; seed 43 against the seed-42 one) is reported as failed,
    not as passing;
  * a seed without a golden digest passes the 1-shard vs 4-shard check.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark itself: metric tables, golden keys)

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def bench(workload, seed, trace, golden=run.GOLDEN):
    argv = [sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed), "--size", "tiny",
            "--seconds", "0.1", "--trace", str(trace), "--golden", golden]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def has_metrics(result, spec):
    if result is None:
        return False
    metrics = result["metrics"]
    return all(m["name"] in metrics and metrics[m["name"]]["unit"] == m["unit"]
               and isinstance(metrics[m["name"]]["value"], (int, float))
               for m in spec) and len(metrics) == len(spec)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    check([(m["name"], m["unit"]) for m in contract["per_layer"]] ==
          list(run.PER_LAYER), "BENCHMARK.json per_layer matches run.py")
    check([(m["name"], m["unit"]) for m in contract["end_to_end"]] ==
          list(run.END_TO_END), "BENCHMARK.json end_to_end matches run.py")
    golden = run.load_golden(run.GOLDEN)
    os.makedirs(run.BUILD, exist_ok=True)
    wrong_golden = os.path.join(run.BUILD, "selftest_wrong_golden.json")

    for workload in run.WORKLOADS:
        for trace, spec in ((0, contract["end_to_end"]),
                            (1, contract["per_layer"])):
            result = bench(workload, 42, trace)
            check(result is not None and result["correct"] and
                  result["failed"] == 0 and result["attempted"] >= 1,
                  "%s trace %d: golden digest and invariants hold"
                  % (workload, trace))
            check(has_metrics(result, spec),
                  "%s trace %d: every metric with its unit" % (workload, trace))

        right = golden[run.golden_key(workload, "tiny", 42)]
        wrong = {42: "%016x" % (int(right, 16) ^ 1)}
        if workload != "registry_churn":
            # The registry plane has no RNG: its seed only shifts the
            # outage, which the merged metrics see in coarse steps, so
            # neighbouring seeds may rightly share a digest.
            wrong[43] = right
        for seed, digest in wrong.items():
            with open(wrong_golden, "w") as f:
                json.dump({run.golden_key(workload, "tiny", seed): digest}, f)
            result = bench(workload, seed, 0, golden=wrong_golden)
            check(result is not None and not result["correct"] and
                  result["failed"] >= 1,
                  "%s: seed %d against a wrong golden digest is a failed run"
                  % (workload, seed))

        result = bench(workload, 44, 0)
        check(result is not None and result["correct"],
              "%s: seed 44 passes the 1-shard vs 4-shard check" % workload)

    print("selftest: %s" % ("FAILED: %d" % len(FAILURES) if FAILURES
                            else "all checks passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
