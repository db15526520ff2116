#!/usr/bin/env python3
"""Validate and render dlte-series-v1 health/telemetry files.

Input is the <prefix>.series.json document bench binaries write under
`--artifacts=<prefix>` (and ap_failover's `--series-out=`) — the
TimeSeriesSampler's ring of rows plus the SloMonitor's rule set, alert
timeline, and final per-scope
health scores. The tool validates the schema, prints a per-scope report
(series summary, alert timeline, health scores), and can gate CI:

    tools/health_report.py out/series.json
    tools/health_report.py out/series.json --require-alert registry_outage \\
        --require-resolve

`--require-alert NAME` fails (exit 1) unless an alert named NAME fired;
`--require-resolve` additionally requires every fired alert named NAME
to have resolved by the end of the run. `--series PREFIX` limits the
series listing to metrics with that prefix. Exit 2 = unreadable or
schema-invalid input. Stdlib only.
"""

import argparse
import json
import pathlib
import sys

SCHEMA = "dlte-series-v1"
SERIES_KINDS = ("counter", "rate", "gauge", "hist_count", "hist_quantile")
ALERT_KEYS = ("t_s", "event", "rule", "scope", "metric", "value", "threshold")


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
    for key, kind in (("source", str), ("interval_s", (int, float)),
                      ("samples", int), ("series", dict), ("rules", list),
                      ("alerts", list), ("health", dict)):
        if not isinstance(doc.get(key), kind):
            die(f"{path}: missing or mistyped key {key!r}")
    for name, series in doc["series"].items():
        if series.get("kind") not in SERIES_KINDS:
            die(f"{path}: series {name!r} has unknown kind "
                f"{series.get('kind')!r}")
        points = series.get("points")
        if not isinstance(points, list):
            die(f"{path}: series {name!r} lacks a points array")
        for point in points:
            if (not isinstance(point, list) or len(point) != 2 or
                    not all(isinstance(v, (int, float)) for v in point)):
                die(f"{path}: series {name!r} has a malformed point: "
                    f"{point!r}")
        times = [p[0] for p in points]
        if times != sorted(times):
            die(f"{path}: series {name!r} timestamps are not monotonic")
    for alert in doc["alerts"]:
        missing = [k for k in ALERT_KEYS if k not in alert]
        if missing:
            die(f"{path}: alert lacks keys: {', '.join(missing)}")
        if alert["event"] not in ("fire", "resolve"):
            die(f"{path}: alert event {alert['event']!r} is neither "
                "fire nor resolve")


def summarize_series(doc: dict, prefix: str) -> None:
    names = [n for n in doc["series"] if n.startswith(prefix)]
    shown = names[:20]
    print(f"series ({len(names)}"
          f"{' matching ' + repr(prefix) if prefix else ''}, "
          f"{doc['samples']} samples at {doc['interval_s']}s):")
    for name in shown:
        series = doc["series"][name]
        points = series["points"]
        values = [p[1] for p in points]
        last = values[-1] if values else 0.0
        peak = max(values) if values else 0.0
        dropped = f" dropped={series['dropped']}" if series["dropped"] else ""
        print(f"  {name} [{series['kind']}] points={len(points)} "
              f"last={last:g} max={peak:g}{dropped}")
    if len(names) > len(shown):
        print(f"  ... and {len(names) - len(shown)} more "
              "(narrow with --series PREFIX)")


def alert_timeline(doc: dict) -> None:
    print(f"\nrules ({len(doc['rules'])}):")
    for rule in doc["rules"]:
        print(f"  {rule}")
    print(f"\nalert timeline ({len(doc['alerts'])} events):")
    if not doc["alerts"]:
        print("  (no alerts fired)")
    for alert in doc["alerts"]:
        print(f"  t={alert['t_s']:8.2f}s {alert['event'].upper():7s} "
              f"{alert['rule']} [{alert['scope']}] {alert['metric']} "
              f"value={alert['value']:g} threshold={alert['threshold']:g}")
    print("\nfinal health scores:")
    for scope in sorted(doc["health"]):
        score = doc["health"][scope]
        flag = "" if score >= 1.0 else "  <-- unhealthy at end of run"
        print(f"  {scope}: {score:g}{flag}")


def check_requirements(doc: dict, require_alert: list,
                       require_resolve: bool) -> int:
    failures = 0
    for name in require_alert:
        fires = [a for a in doc["alerts"]
                 if a["rule"] == name and a["event"] == "fire"]
        resolves = [a for a in doc["alerts"]
                    if a["rule"] == name and a["event"] == "resolve"]
        if not fires:
            print(f"FAIL: required alert {name!r} never fired")
            failures += 1
            continue
        print(f"OK: alert {name!r} fired at "
              f"t={fires[0]['t_s']:g}s ({len(fires)} fire(s))")
        if require_resolve:
            if len(resolves) < len(fires):
                print(f"FAIL: alert {name!r} fired {len(fires)}x but "
                      f"resolved only {len(resolves)}x")
                failures += 1
            else:
                print(f"OK: alert {name!r} resolved at "
                      f"t={resolves[-1]['t_s']:g}s")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("series_file", type=pathlib.Path)
    parser.add_argument("--series", default="", metavar="PREFIX",
                        help="only list series whose name starts with PREFIX")
    parser.add_argument("--require-alert", action="append", default=[],
                        metavar="NAME",
                        help="fail unless alert NAME fired (repeatable)")
    parser.add_argument("--require-resolve", action="store_true",
                        help="with --require-alert: also require every "
                             "fire of NAME to have a matching resolve")
    args = parser.parse_args()
    doc = load(args.series_file)
    print(f"{args.series_file}: source={doc['source']!r} schema ok")
    summarize_series(doc, args.series)
    alert_timeline(doc)
    if args.require_alert:
        print()
        return check_requirements(doc, args.require_alert,
                                  args.require_resolve)
    return 0


if __name__ == "__main__":
    sys.exit(main())
