#!/usr/bin/env python3
"""Gate bench results against checked-in baselines.

Two modes:

  Regression gate (default): for every baseline bench/baselines/
  BENCH_<name>.json, find the matching BENCH_<name>.json under
  --result-dir and fail if its wall_seconds exceeds the baseline by more
  than --threshold (fractional, default 0.25 = +25%). When both files
  record an engine throughput (timings.events_per_sec, written by
  Harness::throughput), additionally fail if the result's throughput
  drops more than --threshold below the baseline's.

      tools/check_bench_regression.py \
          --baseline-dir bench/baselines --result-dir out

  --result-dir may be repeated, one directory per pass of the benches.
  Each bench is then judged on the median wall time (and the median
  throughput) over the directories that hold its result file, so one
  noisy run on a shared host neither fails nor passes the gate alone.
  A bench whose result is in none of them fails as missing.

      tools/check_bench_regression.py --baseline-dir bench/baselines \
          --result-dir out/run1 --result-dir out/run2 --result-dir out/run3

  With --json PATH the gate additionally writes a machine-readable
  dlte-bench-gate-v1 document (per-bench wall/throughput base, result,
  delta, limit, and verdict plus the overall status) to PATH; stdout
  keeps the human one-line-per-gate format either way.

  Determinism compare: byte-compare the "metrics" objects of two result
  files (the deterministic slice of the schema; wall_seconds, peak_rss_mb
  and timings are host-dependent and exempt).

      tools/check_bench_regression.py --compare-metrics a.json b.json

Exit status: 0 = all gates passed, 1 = regression/mismatch, 2 = usage or
missing/malformed input.
"""

import argparse
import json
import pathlib
import statistics
import sys

REQUIRED_KEYS = ("bench", "git_rev", "sim_seconds", "wall_seconds", "metrics")

RERECORD_HINT = ("to (re)record baselines, run the bench binaries and copy "
                 "their BENCH_*.json into bench/baselines/ — see README "
                 "\"Recording bench baselines\"")


def die(message: str) -> None:
    """Exit 2 (usage/input error) with a one-line diagnosis, no traceback."""
    print(f"error: {message}", file=sys.stderr)
    print(f"hint: {RERECORD_HINT}", file=sys.stderr)
    sys.exit(2)


def load(path: pathlib.Path) -> dict:
    if not path.exists():
        die(f"{path} does not exist")
    try:
        text = path.read_text()
    except OSError as err:
        die(f"cannot read {path}: {err}")
    if not text.strip():
        die(f"{path} is empty — the bench likely crashed before finish()")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        die(f"{path} is not valid JSON ({err}) — truncated bench output?")
    if not isinstance(doc, dict):
        die(f"{path} is not a JSON object")
    missing = [k for k in REQUIRED_KEYS if k not in doc]
    if missing:
        die(f"{path} lacks required keys: {', '.join(missing)}")
    return doc


def compare_metrics(a_path: pathlib.Path, b_path: pathlib.Path) -> int:
    a, b = load(a_path), load(b_path)
    a_json = json.dumps(a["metrics"], sort_keys=True)
    b_json = json.dumps(b["metrics"], sort_keys=True)
    if a_json != b_json:
        print(f"FAIL: metrics differ between {a_path} and {b_path}")
        for section in ("counters", "gauges", "histograms"):
            am, bm = a["metrics"].get(section, {}), b["metrics"].get(section, {})
            for key in sorted(set(am) | set(bm)):
                if am.get(key) != bm.get(key):
                    print(f"  {section}.{key}: {am.get(key)!r} != {bm.get(key)!r}")
        return 1
    print(f"OK: metrics byte-identical ({a_path.name})")
    return 0


def regression_gate(baseline_dir: pathlib.Path, result_dirs: list,
                    threshold: float, slack: float,
                    json_path: pathlib.Path = None) -> int:
    if not baseline_dir.is_dir():
        die(f"baseline directory {baseline_dir} does not exist")
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        die(f"no BENCH_*.json baselines in {baseline_dir}")
    failures = 0
    records = []
    for base_path in baselines:
        bench_name = base_path.stem.replace("BENCH_", "", 1)
        record = {"bench": bench_name, "verdict": "ok",
                  "wall": None, "throughput": None}
        records.append(record)
        result_paths = [d / base_path.name for d in result_dirs
                        if (d / base_path.name).exists()]
        if not result_paths:
            where = ", ".join(str(d) for d in result_dirs)
            print(f"FAIL: {base_path.name} missing from {where} "
                  "(baseline exists)")
            record["verdict"] = "missing"
            failures += 1
            continue
        base = load(base_path)
        results = [load(p) for p in result_paths]
        record["runs"] = len(results)
        base_wall = base["wall_seconds"]
        result_wall = statistics.median(r["wall_seconds"] for r in results)
        if base_wall <= 0:
            print(f"SKIP: {base_path.name} baseline wall_seconds <= 0")
            record["verdict"] = "skipped"
            continue
        # The absolute slack keeps sub-second benches from tripping the
        # ratio gate on scheduler noise.
        allowed = base_wall * (1.0 + threshold) + slack
        verdict = "OK" if result_wall <= allowed else "FAIL"
        # Always print the measured delta, pass or fail: a +20% "OK" is
        # the early warning the threshold alone would swallow.
        wall_delta = (result_wall - base_wall) / base_wall
        runs = f" (median of {len(results)})" if len(results) > 1 else ""
        print(f"{verdict}: {base_path.name} wall {result_wall:.3f}s{runs} vs "
              f"baseline {base_wall:.3f}s ({wall_delta:+.1%}, "
              f"limit {allowed:.3f}s = +{threshold:.0%} + {slack:.1f}s)")
        record["wall"] = {"base_s": base_wall, "result_s": result_wall,
                          "delta": wall_delta, "limit_s": allowed,
                          "verdict": verdict.lower()}
        if verdict == "FAIL":
            failures += 1
            record["verdict"] = "fail"
        # Throughput gate: only when BOTH sides recorded it, so adding
        # throughput() to a bench does not fail until its baseline is
        # re-recorded with the new field.
        base_tp = base.get("timings", {}).get("events_per_sec", 0.0)
        result_tps = [r.get("timings", {}).get("events_per_sec", 0.0)
                      for r in results]
        result_tp = (statistics.median(result_tps)
                     if all(tp > 0.0 for tp in result_tps) else 0.0)
        if base_tp > 0.0 and result_tp > 0.0:
            floor = base_tp * (1.0 - threshold)
            verdict = "OK" if result_tp >= floor else "FAIL"
            tp_delta = (result_tp - base_tp) / base_tp
            print(f"{verdict}: {base_path.name} throughput "
                  f"{result_tp / 1e6:.2f} Mev/s{runs} vs baseline "
                  f"{base_tp / 1e6:.2f} Mev/s ({tp_delta:+.1%}, "
                  f"floor {floor / 1e6:.2f} = -{threshold:.0%})")
            record["throughput"] = {
                "base_events_per_sec": base_tp,
                "result_events_per_sec": result_tp,
                "delta": tp_delta, "floor_events_per_sec": floor,
                "verdict": verdict.lower()}
            if verdict == "FAIL":
                failures += 1
                record["verdict"] = "fail"
    if failures:
        print(f"{failures} gate(s) regressed beyond {threshold:.0%}; "
              "if intentional, refresh bench/baselines/ (see README).")
    if json_path is not None:
        doc = {"schema": "dlte-bench-gate-v1",
               "status": "fail" if failures else "ok",
               "threshold": threshold, "slack_s": slack,
               "failures": failures, "benches": records}
        try:
            json_path.write_text(json.dumps(doc, indent=1) + "\n")
        except OSError as err:
            die(f"cannot write {json_path}: {err}")
        print(f"[gate json] {json_path}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline-dir", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"))
    parser.add_argument("--result-dir", type=pathlib.Path,
                        action="append", default=None,
                        help="directory of BENCH_*.json results; repeat "
                             "it to gate each bench on the median over "
                             "the directories that hold it (default .)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional wall-time growth "
                             "(default 0.25 = +25%%)")
    parser.add_argument("--slack", type=float, default=0.5,
                        help="absolute wall-time grace in seconds added "
                             "on top of the threshold (default 0.5)")
    parser.add_argument("--compare-metrics", nargs=2, type=pathlib.Path,
                        metavar=("A", "B"),
                        help="byte-compare the metrics objects of two "
                             "result files instead of gating wall time")
    parser.add_argument("--json", type=pathlib.Path, metavar="PATH",
                        default=None,
                        help="additionally write a machine-readable "
                             "dlte-bench-gate-v1 verdict document (per-bench "
                             "wall/throughput deltas and pass/fail) to PATH; "
                             "the human one-line format stays on stdout")
    args = parser.parse_args()
    if args.compare_metrics:
        return compare_metrics(*args.compare_metrics)
    return regression_gate(args.baseline_dir,
                           args.result_dir or [pathlib.Path(".")],
                           args.threshold, args.slack, args.json)


if __name__ == "__main__":
    sys.exit(main())
