#!/usr/bin/env python3
"""Fail when a src/ header is reachable only from tests.

Builds the `#include "..."` graph over src/ bench/ examples/ perfbench/
tests/ and computes which src/ headers are live:

  * every file outside src/ and tests/ (benches, examples, the benchmark
    job runner) is live;
  * a src/ header is live when a live non-test file OTHER than its own
    .cpp includes it, and a live header makes its own .cpp live;
  * a src/ .cpp with no header of its own is live.

The rule is applied to a fixed point, so a header whose only non-test
includer is itself dead (e.g. a codec used only by a test-only engine)
is dead too. Dead headers are listed one per line and the exit status
is 1; 0 means every src/ header has a non-test user.

    tools/check_reachability.py [--root DIR]
"""

import argparse
import pathlib
import re
import sys

SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def scan(root):
    """Map each scanned file (root-relative posix path) to its includes."""
    includes = {}
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            includes[rel] = INCLUDE_RE.findall(text)
    return includes


def resolve(including, target, files):
    """Resolve an include the way the build does: the includer's own
    directory first, then the src/ include root."""
    local = (pathlib.PurePosixPath(including).parent / target).as_posix()
    for candidate in (local, "src/" + target):
        if candidate in files:
            return candidate
    return None


def stem(path):
    return pathlib.PurePosixPath(path).with_suffix("").as_posix()


def dead_headers(includes):
    files = set(includes)
    edges = {
        f: {r for r in (resolve(f, t, files) for t in incs) if r is not None}
        for f, incs in includes.items()
    }
    headers = {f for f in files
               if f.startswith("src/") and f.endswith((".h", ".hpp"))}
    header_stems = {stem(h) for h in headers}
    live = {f for f in files
            if not f.startswith("tests/") and f not in headers
            and (not f.startswith("src/") or stem(f) not in header_stems)}
    changed = True
    while changed:
        changed = False
        for h in sorted(headers - live):
            own = stem(h) + ".cpp"
            if any(h in edges[f] for f in live if f != own):
                live.add(h)
                if own in files:
                    live.add(own)
                changed = True
    return sorted(h[len("src/"):] for h in headers - live)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    args = parser.parse_args(argv)
    dead = dead_headers(scan(args.root))
    if not dead:
        print("reachability: every src/ header has a non-test user")
        return 0
    print(f"reachability: {len(dead)} src/ header(s) reached only from "
          "tests (wire them into a bench/example or delete them):",
          file=sys.stderr)
    for header in dead:
        print(header)
    return 1


if __name__ == "__main__":
    sys.exit(main())
