#!/usr/bin/env python3
"""Validate and render dlte-prof-v1 self-profiling documents.

Input is the <prefix>.prof.json document sharded bench binaries write
under `--artifacts=<prefix>`: the deterministic event-attribution
section (per-label schedule/execute/past-clamp/residency counts,
byte-identical across shard and thread counts) plus the wall-clock
shard profile (per-shard lane timing, shard-pair message matrix,
per-window samples — never byte-compared).

    tools/prof_report.py out/c10.prof.json
    tools/prof_report.py out/c10.prof.json --top 10 --require-label 'sim.*'
    tools/prof_report.py --compare run1.prof.json run2.prof.json

`--require-label PATTERN` fails (exit 1) unless some label matches the
glob PATTERN (repeatable). `--compare A B` byte-compares only the
deterministic event_attribution sections of two documents — the CI
prof-determinism gate; the wall-clock lanes (inject, run, sample,
barrier wait and the start delay inside it) and coordinator phases
(exchange, engine sample, audit) are rendered but never compared.
Exit 2 = unreadable or schema-invalid input. Stdlib only.
"""

import argparse
import fnmatch
import json
import pathlib
import sys

SCHEMA = "dlte-prof-v1"
LABEL_KEYS = ("schedules", "executed", "past_clamps", "residency_ns")
TOTALS_KEYS = ("labels",) + LABEL_KEYS
LANE_KEYS = ("shard", "events", "inject_s", "run_s", "barrier_wait_s",
             "sample_s", "start_s", "events_per_window")
COORDINATOR_KEYS = ("exchange_s", "engine_sample_s", "audit_s")
CELL_KEYS = ("src", "dst", "messages", "bytes")


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path: pathlib.Path) -> dict:
    try:
        text = path.read_text()
    except OSError as err:
        die(f"cannot read {path}: {err}")
    if not text.strip():
        die(f"{path} is empty — did the run reach finish()?")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        die(f"{path} is not valid JSON ({err})")
    validate(doc, path)
    return doc


def validate(doc: dict, path: pathlib.Path) -> None:
    """Schema check: every key the C++ exporter promises, typed."""
    if not isinstance(doc, dict):
        die(f"{path}: top level is not an object")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    if not isinstance(doc.get("source"), str):
        die(f"{path}: missing source string")
    attribution = doc.get("event_attribution")
    if not isinstance(attribution, dict):
        die(f"{path}: missing event_attribution object")
    labels = attribution.get("labels")
    if not isinstance(labels, dict) or not labels:
        die(f"{path}: event_attribution.labels missing or empty "
            "(sim.unlabeled is always present)")
    for name, stats in labels.items():
        if not isinstance(stats, dict):
            die(f"{path}: label {name!r} is not an object")
        for key in LABEL_KEYS:
            if not isinstance(stats.get(key), int):
                die(f"{path}: label {name!r} lacks integer key {key!r}")
        if stats["executed"] > stats["schedules"]:
            die(f"{path}: label {name!r} executed more events than it "
                "scheduled")
    if list(labels) != sorted(labels):
        die(f"{path}: event_attribution.labels keys are not sorted — "
            "the deterministic byte-compare contract is broken")
    totals = attribution.get("totals")
    if not isinstance(totals, dict):
        die(f"{path}: event_attribution.totals missing")
    for key in TOTALS_KEYS:
        if not isinstance(totals.get(key), int):
            die(f"{path}: totals lacks integer key {key!r}")
    if totals["labels"] != len(labels):
        die(f"{path}: totals.labels={totals['labels']} but "
            f"{len(labels)} labels present")
    for key in LABEL_KEYS:
        summed = sum(stats[key] for stats in labels.values())
        if summed != totals[key]:
            die(f"{path}: totals.{key}={totals[key]} but labels sum "
                f"to {summed}")
    profile = doc.get("shard_profile")
    if not isinstance(profile, dict):
        die(f"{path}: shard_profile is not an object")
    for key in ("shards", "threads", "windows", "messages"):
        if not isinstance(profile.get(key), int):
            die(f"{path}: shard_profile lacks integer key {key!r}")
    # Documents written before light windows ran inline lack the count.
    if not isinstance(profile.get("windows_inline", 0), int):
        die(f"{path}: shard_profile.windows_inline is not an integer")
    if not isinstance(profile.get("lookahead_s"), (int, float)):
        die(f"{path}: shard_profile lacks lookahead_s")
    lanes = profile.get("per_shard")
    if not isinstance(lanes, list):
        die(f"{path}: shard_profile.per_shard is not an array")
    for lane in lanes:
        missing = [k for k in LANE_KEYS if k not in lane]
        if missing:
            die(f"{path}: shard lane lacks keys: {', '.join(missing)}")
        for key in ("inject_s", "start_s"):
            value = lane[key]
            if not isinstance(value, (int, float)) or value < 0:
                die(f"{path}: shard lane {key} is not a non-negative "
                    "number")
    coordinator = profile.get("coordinator")
    if not isinstance(coordinator, dict):
        die(f"{path}: shard_profile.coordinator is not an object")
    for key in COORDINATOR_KEYS:
        if not isinstance(coordinator.get(key), (int, float)):
            die(f"{path}: shard_profile.coordinator lacks {key!r}")
    for cell in profile.get("matrix", []):
        missing = [k for k in CELL_KEYS if k not in cell]
        if missing:
            die(f"{path}: matrix cell lacks keys: {', '.join(missing)}")
        shards = profile["shards"]
        if cell["src"] >= shards or cell["dst"] >= shards:
            die(f"{path}: matrix cell ({cell['src']},{cell['dst']}) "
                f"out of range for {shards} shards")
    samples = profile.get("samples")
    if not isinstance(samples, dict):
        die(f"{path}: shard_profile.samples is not an object")
    t_s = samples.get("t_s", [])
    for key in ("t_s", "messages", "shard_events"):
        column = samples.get(key)
        if not isinstance(column, list) or len(column) != len(t_s):
            die(f"{path}: samples.{key} missing or ragged "
                "(columns must be equal length)")
    if t_s != sorted(t_s):
        die(f"{path}: samples.t_s is not monotonic")


def label_table(doc: dict, top: int) -> None:
    labels = doc["event_attribution"]["labels"]
    totals = doc["event_attribution"]["totals"]
    ranked = sorted(labels.items(),
                    key=lambda kv: (-kv[1]["executed"], kv[0]))
    shown = ranked[:top]
    width = max((len(name) for name, _ in shown), default=5)
    print(f"labels ({len(labels)}, top {len(shown)} by executed):")
    print(f"  {'label':{width}s} {'executed':>10s} {'sched':>10s} "
          f"{'clamped':>8s} {'share':>6s} {'avg_residency':>14s}")
    for name, stats in shown:
        share = (stats["executed"] / totals["executed"]
                 if totals["executed"] else 0.0)
        avg_res = (stats["residency_ns"] / stats["schedules"] / 1e6
                   if stats["schedules"] else 0.0)
        print(f"  {name:{width}s} {stats['executed']:10d} "
              f"{stats['schedules']:10d} {stats['past_clamps']:8d} "
              f"{share:6.1%} {avg_res:11.3f} ms")
    print(f"  totals: {totals['executed']} executed / "
          f"{totals['schedules']} scheduled, "
          f"{totals['past_clamps']} past-clamped")


def shard_report(profile: dict) -> None:
    print(f"\nshard profile: {profile['shards']} shard(s), "
          f"{profile['threads']} thread(s), {profile['windows']} windows "
          f"({profile.get('windows_inline', 0)} inline, "
          f"lookahead {profile['lookahead_s']:g}s), "
          f"{profile['messages']} cross-shard messages")
    for lane in profile["per_shard"]:
        busy = lane["run_s"] + lane["barrier_wait_s"]
        wait_share = lane["barrier_wait_s"] / busy if busy > 0 else 0.0
        print(f"  shard {lane['shard']}: {lane['events']} events "
              f"({lane['events_per_window']:.1f}/window), "
              f"inject {lane['inject_s'] * 1e3:.1f}ms, "
              f"run {lane['run_s'] * 1e3:.1f}ms, "
              f"sample {lane['sample_s'] * 1e3:.1f}ms, "
              f"barrier wait {lane['barrier_wait_s'] * 1e3:.1f}ms "
              f"({wait_share:.0%}; start {lane['start_s'] * 1e3:.1f}ms)")
    coordinator = profile["coordinator"]
    print(f"  coordinator: exchange "
          f"{coordinator['exchange_s'] * 1e3:.1f}ms, engine sample "
          f"{coordinator['engine_sample_s'] * 1e3:.1f}ms, audit "
          f"{coordinator['audit_s'] * 1e3:.1f}ms")
    render_matrix(profile)
    t_s = profile["samples"]["t_s"]
    if t_s:
        print(f"  samples: {len(t_s)} windows over "
              f"t=[{t_s[0]:g}s, {t_s[-1]:g}s]")


def render_matrix(profile: dict) -> None:
    cells = profile.get("matrix", [])
    shards = profile["shards"]
    if not cells:
        print("  matrix: (no cross-shard messages)")
        return
    grid = [[0] * shards for _ in range(shards)]
    for cell in cells:
        grid[cell["src"]][cell["dst"]] = cell["messages"]
    width = max(len(str(v)) for row in grid for v in row)
    width = max(width, len(str(shards - 1)) + 1)
    header = " ".join(f"d{d}".rjust(width) for d in range(shards))
    print(f"  matrix (messages, src rows x dst cols):")
    print(f"    {'':4s}{header}")
    for src, row in enumerate(grid):
        body = " ".join(str(v).rjust(width) for v in row)
        print(f"    s{src:<3d}{body}")


def check_labels(doc: dict, patterns: list) -> int:
    labels = doc["event_attribution"]["labels"]
    failures = 0
    for pattern in patterns:
        matched = sorted(n for n in labels if fnmatch.fnmatchcase(n, pattern))
        if not matched:
            print(f"FAIL: no label matches {pattern!r} "
                  f"(have: {', '.join(sorted(labels))})")
            failures += 1
        else:
            executed = sum(labels[n]["executed"] for n in matched)
            print(f"OK: {pattern!r} matches {len(matched)} label(s), "
                  f"{executed} events executed")
    return 1 if failures else 0


def compare(a_path: pathlib.Path, b_path: pathlib.Path) -> int:
    """Byte-compare the deterministic sections of two documents."""
    a, b = load(a_path), load(b_path)
    a_json = json.dumps(a["event_attribution"], sort_keys=True)
    b_json = json.dumps(b["event_attribution"], sort_keys=True)
    if a_json != b_json:
        print(f"FAIL: event_attribution differs between {a_path} and "
              f"{b_path}")
        am, bm = a["event_attribution"]["labels"], \
            b["event_attribution"]["labels"]
        for name in sorted(set(am) | set(bm)):
            if am.get(name) != bm.get(name):
                print(f"  {name}: {am.get(name)!r} != {bm.get(name)!r}")
        return 1
    print(f"OK: event_attribution byte-identical "
          f"({a_path.name} vs {b_path.name})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("prof_file", type=pathlib.Path, nargs="?")
    parser.add_argument("--top", type=int, default=15, metavar="N",
                        help="rows in the per-label table (default 15)")
    parser.add_argument("--require-label", action="append", default=[],
                        metavar="PATTERN",
                        help="fail unless a label matches the glob "
                             "PATTERN (repeatable)")
    parser.add_argument("--compare", nargs=2, type=pathlib.Path,
                        metavar=("A", "B"),
                        help="byte-compare the deterministic "
                             "event_attribution sections of two documents")
    args = parser.parse_args()
    if args.compare:
        if args.prof_file is not None:
            parser.error("--compare takes exactly two files, no positional")
        return compare(*args.compare)
    if args.prof_file is None:
        parser.error("prof_file is required unless --compare is given")
    doc = load(args.prof_file)
    print(f"{args.prof_file}: source={doc['source']!r} schema ok")
    label_table(doc, args.top)
    shard_report(doc["shard_profile"])
    if args.require_label:
        print()
        return check_labels(doc, args.require_label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
