#!/usr/bin/env bash
# Single entry point for observability artifact checks (DESIGN.md §10).
#
#   tools/obs_check.sh trace   <trace.json>  [summarize_trace.py args...]
#   tools/obs_check.sh series  <series.json> [health_report.py args...]
#   tools/obs_check.sh par     <prefixA> <prefixB>
#   tools/obs_check.sh metrics <benchA.json> <benchB.json>
#   tools/obs_check.sh prof    <prof.json>   [prof_report.py args...]
#   tools/obs_check.sh audit   <a.audit.json> <b.audit.json> [args...]
#
# `trace` validates/summarizes a Chrome trace-event export (--require /
# --require-child gates); `series` validates/renders a dlte-series-v1
# health file (--require-alert / --require-resolve gates). CI and
# EXPERIMENTS.md go through this wrapper so the dispatch lives in one
# place. Exit codes pass through from the underlying tool.
#
# `par` compares the documents two sharded-bench runs wrote under
# --artifacts=<prefix> — the determinism gate that a parallel run is
# identical to the sequential one (or a sweep to a gate run). Every
# sharded bench writes all six, so a file missing on either side fails
# the gate; <prefix>.metrics.json, .series.json and .openmetrics.txt
# must be byte-identical, the .prof.json event-attribution sections
# must agree (prof_report.py --compare), and so must the .audit.json
# merged sections (audit_diff.py --merged-only). .prof-trace.json is
# wall-clock and only has to exist.
#
# `metrics` byte-compares the deterministic "metrics" objects of two
# BENCH_<name>.json files (same bench run twice, e.g. the C11
# coexistence determinism gate).
#
# `prof` validates/renders a dlte-prof-v1 self-profiling document
# (--require-label gates; `prof --compare A B` byte-compares the
# deterministic event-attribution sections — the prof-determinism gate).
#
# `audit` diffs two dlte-audit-v1 determinism-audit documents through
# audit_diff.py (first divergent window/shard/label localization; pass
# --merged-only for cross-shard-count compares, --expect-* for the
# injected-divergence self-test).
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"

usage() {
  sed -n '2,38p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
}

[ $# -ge 2 ] || usage
mode="$1"
shift

case "$mode" in
  trace)
    exec python3 "$here/summarize_trace.py" "$@"
    ;;
  series)
    exec python3 "$here/health_report.py" "$@"
    ;;
  par)
    [ $# -eq 2 ] || usage
    a="$1"
    b="$2"
    rc=0
    for ext in metrics.json series.json openmetrics.txt prof.json \
               prof-trace.json audit.json; do
      for f in "$a.$ext" "$b.$ext"; do
        if [ ! -e "$f" ]; then
          echo "par: $ext MISSING ($f)" >&2
          rc=1
        fi
      done
    done
    [ "$rc" -eq 0 ] || exit "$rc"
    for ext in metrics.json series.json openmetrics.txt; do
      if cmp -s "$a.$ext" "$b.$ext"; then
        echo "par: $ext identical"
      else
        echo "par: $ext DIVERGED ($a.$ext vs $b.$ext)" >&2
        cmp "$a.$ext" "$b.$ext" >&2 || true
        rc=1
      fi
    done
    # Both documents carry a wall-clock or per-partition half, so only
    # their deterministic sections compare.
    if python3 "$here/prof_report.py" --compare \
        "$a.prof.json" "$b.prof.json" > /dev/null; then
      echo "par: prof.json event attribution identical"
    else
      echo "par: prof.json DIVERGED ($a.prof.json vs $b.prof.json)" >&2
      python3 "$here/prof_report.py" --compare \
        "$a.prof.json" "$b.prof.json" >&2 || true
      rc=1
    fi
    # The audit document's per-shard section legitimately differs across
    # partitions, so it goes through audit_diff.py --merged-only instead
    # of cmp. On any divergence above, the audit diagnosis is the
    # localization the bare cmp offsets can't give.
    if python3 "$here/audit_diff.py" --merged-only \
        "$a.audit.json" "$b.audit.json"; then
      echo "par: audit merged section identical"
    else
      echo "par: audit.json DIVERGED ($a.audit.json vs $b.audit.json)" >&2
      rc=1
    fi
    if [ "$rc" -ne 0 ]; then
      echo "par: audit diagnosis (full compare):" >&2
      python3 "$here/audit_diff.py" "$a.audit.json" "$b.audit.json" >&2 || true
    fi
    [ "$rc" -eq 0 ] && echo "par: all documents agree"
    exit "$rc"
    ;;
  metrics)
    [ $# -eq 2 ] || usage
    exec python3 "$here/check_bench_regression.py" --compare-metrics "$1" "$2"
    ;;
  prof)
    exec python3 "$here/prof_report.py" "$@"
    ;;
  audit)
    exec python3 "$here/audit_diff.py" "$@"
    ;;
  *)
    echo "obs_check.sh: unknown mode '$mode' (expected trace|series|par|metrics|prof|audit)" >&2
    usage
    ;;
esac
