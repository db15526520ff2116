#!/usr/bin/env python3
"""Fail when a src/ header, a symbol it declares or a function it defines
is reachable only from tests.

Builds the `#include "..."` graph over src/ bench/ examples/ perfbench/
tests/ and computes which src/ headers are live:

  * every file outside src/ and tests/ (benches, examples, the benchmark
    job runner) is live;
  * a src/ header is live when a live non-test file OTHER than its own
    .cpp includes it, and a live header makes its own .cpp live;
  * a src/ .cpp with no header of its own is live.

The rule is applied to a fixed point, so a header whose only non-test
includer is itself dead (e.g. a codec used only by a test-only engine)
is dead too.

A second pass looks inside the live headers at the free functions,
classes, structs and enums declared at namespace scope. The live files
are cut into declarations (a class body into its members, a .cpp into
its definitions), and each declaration belongs to an owner: the symbol
it declares or defines, a member of such a class, or the file itself
(benches, examples, and anything else such as constants and aliases).
Then, to a fixed point:

  * a symbol is live when a live declaration it does not own names it
    (an enum is also named by its enumerators);
  * a member function is live when its class is live and a live
    declaration it does not own names it; constructors, data members
    and nested types live and die with their class;
  * a declaration owned by the file is live when the file is.

So a symbol named only by tests, or only by another dead symbol of its
module (a struct that only a dead codec takes), is dead. Names are
matched as bare identifiers, so a symbol that shares its name with a
live one elsewhere passes; the pass errs towards live. It never reports
a member, it only declines to let one keep a symbol alive.

The same pass then judges the enumerators of each live src/ enum. A
`switch` that tests every alternative keeps the code behind each one
linked, so the link pass below cannot see an alternative that nothing
selects. An enumerator is dead when no live declaration outside its enum
names it other than in a `case` label or as an operand of `==` or `!=`:
those only test for a value, and some other code must produce it.

A third pass asks the linker. It configures its own tree under
build-linkpass/ and builds every dlte_bench and dlte_example target of
bench/ and examples/CMakeLists.txt, plus the benchmark job runner
dlte_perfjob from perfbench/, at -O0 -ffunction-sections
-fkeep-inline-functions, linked with -Wl,--gc-sections. At -O0 nothing is
inlined, and -fkeep-inline-functions emits every inline function into
each object that sees it, so a function is called by some executable
exactly when it survives that executable's link. Every function that a
src/ archive defines and no executable keeps is dead: an out-of-line one
(nm type T) whatever its name, and an inline one (nm type W) when it is a
dlte:: function someone wrote. Four kinds of W symbol are not judged:
lambdas, library instantiations, special members and the unit types'
operators (is_src_function says why). An inline function is reported
once, by name, however many objects carry a copy. Data members are out
of reach, and so is a branch or a codec alternative that only dead code
reaches (the enumerator rule above covers the alternatives an enum
names). The pass fails, rather than passing vacuously, unless every
compile of the tree used -O0, -ffunction-sections and
-fkeep-inline-functions, every executable was linked with --gc-sections,
and every target produced an executable. It needs cmake, make, a C++
compiler and nm, and takes about five minutes from cold.

Dead headers, symbols and functions are listed one per line and the exit
status is 1; 0 means every src/ header, namespace-scope symbol and
function has a non-test user. KEEP lists what is exempt from the passes,
each entry with the reason it stays. tools/test_check_reachability.py
tests the link pass's symbol filter.

    tools/check_reachability.py [--root DIR]
"""

import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

SCAN_DIRS = ("src", "bench", "examples", "perfbench", "tests")
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)

# Why an item stays without a non-test user, keyed by (header relative to
# src/, symbol) for the symbol pass, by (source relative to src/, demangled
# function as nm -C prints it) for an out-of-line function of the link pass,
# and by the demangled function alone for an inline one.
_ATTACH_TABLES = ("tests/core/attach_tables_test.cpp checks the id → slot "
                  "tables against a reference model through it")
_REFERENCE_QUEUE = ("tests/sim/event_queue_test.cpp checks the calendar "
                    "queue against this reference queue")
KEEP = {
    "dlte::core::EnodeB::is_pending(dlte::StrongId<dlte::EnbUeIdTag, "
    "unsigned int>) const": _ATTACH_TABLES,
    "dlte::core::EnodeB::pending_count() const": _ATTACH_TABLES,
    "dlte::core::EnodeB::pending_slots() const": _ATTACH_TABLES,
    "dlte::core::EnodeB::enb_id_table_size() const": _ATTACH_TABLES,
    "dlte::epc::Mme::find_ue(dlte::StrongId<dlte::ImsiTag, unsigned long>) "
    "const": _ATTACH_TABLES,
    "dlte::epc::Mme::find_ue(dlte::StrongId<dlte::MmeUeIdTag, unsigned "
    "int>) const": _ATTACH_TABLES,
    "dlte::epc::Mme::view(unsigned int) const":
        _ATTACH_TABLES + " (find_ue's helper)",
    "dlte::epc::Mme::context_count() const": _ATTACH_TABLES,
    "dlte::FlatMap<dlte::StrongId<dlte::ImsiTag, unsigned long>, unsigned "
    "int>::size() const": _ATTACH_TABLES + " (Mme::context_count)",
    "dlte::epc::Mme::context_slots() const": _ATTACH_TABLES,
    "dlte::epc::Mme::mme_id_table_size() const": _ATTACH_TABLES,
    "dlte::par::ShardedSimulator::windows_inline() const":
        "tests/par/sharded_sim_property_test.cpp holds the inline-window "
        "count equal across shard counts",
    "dlte::sim::Simulator::schedule_past_events() const":
        "tests/par/sharded_sim_property_test.cpp sums each shard's clamped "
        "schedules; the shards' metrics are not merged there",
    "dlte::sim::BinaryHeapQueue::empty() const": _REFERENCE_QUEUE,
    "dlte::sim::BinaryHeapQueue::peek() const": _REFERENCE_QUEUE,
    "dlte::sim::BinaryHeapQueue::size() const": _REFERENCE_QUEUE,
    "dlte::sim::LazyMt19937_64::max()":
        "the std:: distributions read it off the engine at compile time",
    "dlte::sim::LazyMt19937_64::spilled() const":
        "tests/sim/random_test.cpp checks the engine spills on its 157th "
        "draw",
    "dlte::registry::SpatialIndex::size() const":
        "tests/registry/spatial_index_test.cpp holds insert_run and single "
        "inserts to the same entry count",
    "dlte::registry::SpatialIndex::max_range_m() const":
        "tests/registry/spatial_index_test.cpp holds insert_run and single "
        "inserts to the same scan bound",
    "dlte::spectrum::SpectrumChain::block(unsigned long) const":
        "tests/spectrum/chain_records.h reads committed records back for "
        "the chain, batch-commit and registry tests",
    "dlte::spectrum::SpectrumChain::mutable_block(unsigned long)":
        "tests/spectrum/chain_test.cpp tampers with a sealed block",
    "dlte::spectrum::PeerCoordinator::peer_count() const":
        "tests/spectrum/coordinator_test.cpp and tests/core/*_test.cpp check "
        "peer discovery, expiry and corrupt-X2 rejection through it",
    "dlte::mac::DcfBackoff::contention_window() const":
        "tests/mac/wifi_dcf_test.cpp pins the binary exponential backoff "
        "ladder through it",
    "dlte::mac::DcfSimulator::transmitting(int) const":
        "tests/mac/wifi_dcf_test.cpp pins carrier sense and the attempt "
        "accounting through it",
    "dlte::transport::Connection::established() const":
        "tests/transport/transport_test.cpp checks the 0/1/2-RTT handshakes "
        "(paper §4.2) through it",
    "dlte::transport::Connection::broken() const":
        "tests/transport/transport_test.cpp checks a TCP-like connection "
        "dies on rebind and a QUIC-like one migrates (paper §4.2)",
    "dlte::transport::Connection::stats() const":
        "tests/transport/transport_test.cpp reads handshake RTTs, acked "
        "bytes and retransmissions through it",
    "dlte::transport::FlowTrain::stats() const":
        "tests/transport/flow_train_test.cpp holds the train and per-packet "
        "modes to the same bytes and completion times",
}


def scan(root):
    """Map each scanned file (root-relative posix path) to its text."""
    texts = {}
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            texts[rel] = path.read_text(encoding="utf-8", errors="replace")
    return texts


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


def is_header(path):
    return path.endswith((".h", ".hpp"))


def live_files(texts):
    """The header pass: every file that is live, headers included."""
    files = set(texts)
    edges = {
        f: {r for r in (resolve(f, t, files)
                        for t in INCLUDE_RE.findall(text)) if r is not None}
        for f, text in texts.items()
    }
    headers = {f for f in files if f.startswith("src/") and is_header(f)}
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
    return live


# --- Symbol pass --------------------------------------------------------

STRIP_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"([^(\s]*)\(.*?\)\1"|"(?:\\.|[^"\\\n])*"'
    r"|'(?:\\.|[^'\\\n])*'|^[ \t]*#(?:[^\n]*\\\n)*[^\n]*",
    re.DOTALL | re.MULTILINE)
TOKEN_RE = re.compile(r"[A-Za-z_]\w*|::|\d[\w.']*|\S")
IDENT_RE = re.compile(r"[A-Za-z_]\w*$")
CLOSE = {"(": ")", "[": "]", "{": "}"}
# Words that may stand before a top-level "(" without naming a function.
NOT_A_NAME = {
    "alignas", "decltype", "noexcept", "requires", "sizeof", "static_assert",
}
ACCESS = {"public", "private", "protected"}
DECL_SPECIFIERS = {
    "inline", "static", "constexpr", "consteval", "constinit", "extern",
    "virtual", "explicit", "friend", "typename", "mutable",
}


def tokenize(text):
    return TOKEN_RE.findall(STRIP_RE.sub(" ", text))


def match(toks, i):
    """Index of the bracket closing toks[i]."""
    want, depth = CLOSE[toks[i]], 0
    for j in range(i, len(toks)):
        if toks[j] == toks[i]:
            depth += 1
        elif toks[j] == want:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def skip_prefix(toks):
    """Drop template heads, attributes and declaration specifiers."""
    i = 0
    while i < len(toks):
        if toks[i] == "template" and i + 1 < len(toks) and toks[i + 1] == "<":
            depth, i = 0, i + 1
            while i < len(toks):
                depth += {"<": 1, ">": -1}.get(toks[i], 0)
                i += 1
                if depth == 0:
                    break
        elif toks[i] == "[" and i + 1 < len(toks) and toks[i + 1] == "[":
            i = match(toks, i) + 1
        elif toks[i] in DECL_SPECIFIERS:
            i += 1
        elif toks[i] in ACCESS and toks[i + 1:i + 2] == [":"]:
            i += 2
        else:
            break
    return toks[i:]


def first_call(toks):
    """Index of the first "(" outside brackets and template arguments,
    or None when a "=" (an initializer) comes first."""
    angle, i = 0, 0
    while i < len(toks):
        t = toks[i]
        if t == "operator":
            i += 2 if toks[i + 1:i + 2] == ["("] else 1
            while i < len(toks) and toks[i] != "(":
                i += 1
            return i if i < len(toks) else None
        if t == "<" and i > 0 and IDENT_RE.match(toks[i - 1]):
            angle += 1
        elif t == ">" and angle:
            angle -= 1
        elif angle == 0 and t == "=":
            return None
        elif angle == 0 and t == "(":
            return i
        if t in ("[", "{") or (t == "(" and angle):
            i = match(toks, i)
        i += 1
    return None


def type_head(toks):
    """(keyword, name) for a class/struct/union/enum definition head."""
    toks = skip_prefix(toks)
    if not toks or toks[0] not in ("class", "struct", "union", "enum"):
        return None
    i = 1
    if toks[0] == "enum" and i < len(toks) and toks[i] in ("class", "struct"):
        i += 1
    while i < len(toks) and toks[i] == "[":
        i = match(toks, i) + 1
    if i < len(toks) and IDENT_RE.match(toks[i]):
        if i + 1 < len(toks) and toks[i + 1] == "<":
            return None  # A specialization names an existing template.
        return toks[0], toks[i]
    return None


def split(toks, lo, hi):
    """Cut toks[lo:hi] into declarations. Yields ("namespace", lo, hi) for
    a namespace body and ("decl", start, end) otherwise."""
    start, i = lo, lo
    while i < hi:
        t = toks[i]
        if t == ";":
            if i > start:
                yield "decl", start, i
            start = i + 1
        elif t in ("(", "["):
            i = match(toks, i)
        elif t == "{":
            close = match(toks, i)
            head = toks[start:i]
            if "namespace" in head:
                yield "namespace", i + 1, close
                start = close + 1
            elif type_head(head) is not None:
                pass  # Runs on to its ";".
            else:
                call = first_call(head)
                if call is not None and not initializer_brace(head, call):
                    yield "decl", start, close + 1  # A function body.
                    start = close + 1
            i = close
        i += 1
    if start < hi:
        yield "decl", start, hi


def initializer_brace(head, call):
    """True when the "{" after `head` initializes a member in a
    constructor's initializer list rather than opening the body."""
    close = match(head, call)
    rest = head[close + 1:]
    if ":" not in rest:
        return False
    return bool(rest) and (IDENT_RE.match(rest[-1]) or rest[-1] == ">")


def function_name(toks):
    """(qualifiers, name) of the function a declaration declares."""
    toks = skip_prefix(toks)
    call = first_call(toks)
    if call is None or call == 0:
        return None
    if "operator" in toks[:call]:
        return [], "operator"
    j = call - 1
    if toks[j] in NOT_A_NAME or not IDENT_RE.match(toks[j]):
        return None
    name = toks[j]
    if j > 0 and toks[j - 1] == "~":
        name, j = "~" + name, j - 1
    quals = []
    while j >= 2 and toks[j - 1] == "::" and IDENT_RE.match(toks[j - 2]):
        quals.insert(0, toks[j - 2])
        j -= 2
    return quals, name


class Unit:
    """One declaration: who owns it, which identifiers it names, and which
    of them it names other than to test a value (selecting_names)."""

    def __init__(self, owner, toks):
        self.owner = owner
        self.names = set(filter(IDENT_RE.match, toks))
        self.selects = selecting_names(toks)


def selecting_names(toks):
    """The identifiers of `toks` outside `case` labels and outside the
    operands of `==` and `!=`. An operand is the qualified name next to
    the operator (`E::k` in `x == E::k`, `b` in `a.b != c`)."""
    tests = set()
    for i, t in enumerate(toks):
        if t == "case":
            j = i + 1
            while j < len(toks) and toks[j] != ":":
                tests.add(j)
                j += 1
        elif t == "=" and i > 0 and toks[i - 1] in ("=", "!"):
            j = i + 1
            while j < len(toks) and IDENT_RE.match(toks[j]):
                tests.add(j)
                if toks[j + 1:j + 2] != ["::"]:
                    break
                j += 2
            k = i - 2
            while k >= 0 and IDENT_RE.match(toks[k]):
                tests.add(k)
                if k < 1 or toks[k - 1] != "::":
                    break
                k -= 2
    return {t for i, t in enumerate(toks)
            if i not in tests and IDENT_RE.match(t)}


def parse(path, text, module, declared):
    """The namespace-scope symbols a src/ file defines or declares, its
    Units, and the enumerators of its enums. Owners are ("file", path),
    ("sym", module, name) for a name in `declared` (its header's
    symbols), ("local", path, name) for a file-local one, and ("member",
    class_owner, name)."""
    toks = tokenize(text)
    symbols, units, enumerators = [], [], {}

    def owner_of(name, anonymous=False):
        if name in declared and not anonymous:
            return ("sym", module, name)
        return ("local", path, name)

    def class_body(owner, cls, lo, hi):
        for _, s, e in split(toks, lo, hi):
            decl = toks[s:e]
            fn = None if type_head(decl) else function_name(decl)
            if fn is None or fn[1] in (cls, "~" + cls, "operator"):
                units.append(Unit(owner, decl))
            else:
                units.append(Unit(("member", owner, fn[1]), decl))

    def scope(lo, hi, anonymous):
        for kind, s, e in split(toks, lo, hi):
            if kind == "namespace":
                scope(s, e, anonymous or toks[s - 2] == "namespace")
                continue
            decl = toks[s:e]
            head = type_head(decl)
            if head is not None:
                if "{" not in decl:
                    continue  # A forward declaration names nothing.
                owner = owner_of(head[1], anonymous)
                if not anonymous:
                    symbols.append(head)
                brace = decl.index("{")
                close = match(decl, brace)
                if head[0] == "enum":
                    body = decl[brace + 1:close]
                    enumerators[owner] = {
                        n for k, n in enumerate(body) if IDENT_RE.match(n)
                        and (k == 0 or body[k - 1] == ",")}
                units.append(Unit(owner, decl[:brace] + decl[close + 1:]))
                class_body(owner, head[1], s + brace + 1, s + close)
                continue
            fn = function_name(decl)
            if fn is None or fn[1] == "operator":
                units.append(Unit(("file", path), decl))
                continue
            quals, name = fn
            if quals:
                cls = owner_of(quals[0])
                if name in (quals[-1], "~" + quals[-1]):
                    units.append(Unit(cls, decl))
                else:
                    units.append(Unit(("member", cls, name), decl))
                continue
            if not anonymous:
                symbols.append(("function", name))
            units.append(Unit(owner_of(name, anonymous), decl))

    scope(0, len(toks), False)
    return symbols, units, enumerators


def dead_symbols(texts, live):
    """The symbol pass over the live files: [(header, kind, name)], a dead
    enumerator as (file, "enumerator", "Enum::name")."""
    units, symbols, enumerators = [], [], {}
    for path in sorted(live):
        text = texts[path]
        if not path.startswith("src/"):
            units.append(Unit(("file", path), tokenize(text)))
            continue
        module = stem(path)
        header = next((module + s for s in (".h", ".hpp")
                       if module + s in texts), None)
        declared = ({name for _, name in
                     parse(header, texts[header], module, set())[0]}
                    if header else set())
        syms, file_units, enums = parse(path, text, module, declared)
        units.extend(file_units)
        enumerators.update(enums)
        if is_header(path):
            symbols.extend((path, kind, ("sym", module, name))
                           for kind, name in syms)

    # Identifier -> owners of the units naming it.
    naming = {}
    for unit in units:
        for name in unit.names:
            naming.setdefault(name, set()).add(unit.owner)

    live_owners = {u.owner for u in units if u.owner[0] == "file"}

    def named(owner, words):
        """A live unit that `owner` does not own names one of `words`."""
        return any(by != owner and by in live_owners
                   and not (by[0] == "member" and by[1] == owner)
                   for w in words for by in naming.get(w, ()))

    pending = sorted({u.owner for u in units} - live_owners)
    changed = True
    while changed:
        changed = False
        for owner in pending:
            if owner in live_owners:
                continue
            if owner[0] == "member" and owner[1] not in live_owners:
                continue
            if named(owner, {owner[2]} | enumerators.get(owner, set())):
                live_owners.add(owner)
                changed = True

    dead = {(path[len("src/"):], kind, owner[2])
            for path, kind, owner in symbols
            if owner not in live_owners
            and (path[len("src/"):], owner[2]) not in KEEP}

    # Identifier -> live owners that name it other than to test a value.
    selecting = {}
    for unit in units:
        if unit.owner in live_owners:
            for name in unit.selects:
                selecting.setdefault(name, set()).add(unit.owner)
    homes = {owner: path for path, _, owner in symbols}
    for owner, names in enumerators.items():
        if owner not in live_owners:
            continue  # A dead enum is reported whole, above.
        path = homes.get(owner, owner[1])[len("src/"):]
        for name in names:
            qualified = f"{owner[2]}::{name}"
            if (path, qualified) in KEEP or any(
                    by != owner and not (by[0] == "member" and by[1] == owner)
                    for by in selecting.get(name, ())):
                continue
            dead.add((path, "enumerator", qualified))
    return sorted(dead)


# --- Link pass ----------------------------------------------------------

LINK_TREE = "build-linkpass"
# -O0 so nothing is inlined, one section per function so the linker can
# drop each one, every inline function emitted in each archive that sees
# it, and NDEBUG as in every shipped build type.
CMAKE_FLAGS = (
    "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release",
    "-DCMAKE_CXX_FLAGS_RELEASE=-O0 -g0 -DNDEBUG",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fkeep-inline-functions",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
    "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON",
)
TARGET_RES = (("bench", re.compile(r"^dlte_bench\((\w+)\)", re.MULTILINE)),
              ("examples", re.compile(r"^dlte_example\((\w+)\)", re.MULTILINE)))
PERFJOB = "dlte_perfjob"


def run(cmd):
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} failed:\n"
                           + (done.stdout + done.stderr)[-4000:])
    return done.stdout


def build_tree(source, build, targets):
    """Configure and build `targets` with the pass's flags, then check
    that every compile and every link of them used those flags. Returns
    the executables."""
    jobs = str(min(os.cpu_count() or 1, 4))
    run(["cmake", "-S", source, "-B", build, *CMAKE_FLAGS])
    run(["cmake", "--build", build, "-j", jobs, "--target", *targets])
    for entry in json.loads((build / "compile_commands.json").read_text()):
        args = shlex.split(entry.get("command", ""))
        levels = [a for a in args if a.startswith("-O")]
        if (levels[-1:] != ["-O0"] or "-ffunction-sections" not in args
                or "-fkeep-inline-functions" not in args):
            raise RuntimeError(f"{entry['file']} was not compiled with -O0 "
                               "-ffunction-sections -fkeep-inline-functions")
    exes = []
    for target in targets:
        links = list(build.rglob(f"CMakeFiles/{target}.dir/link.txt"))
        if len(links) != 1 or "--gc-sections" not in links[0].read_text():
            raise RuntimeError(f"{target} was not linked with --gc-sections")
        exe = links[0].parents[2] / target
        if not exe.is_file():
            raise RuntimeError(f"{target} produced no executable")
        exes.append(exe)
    return exes


def parse_nm(output):
    """[(object member or None, symbol type, demangled name)] of the lines
    `nm -C --defined-only` prints."""
    symbols, member = [], None
    for line in output.splitlines():
        if line.endswith(":") and " " not in line:
            member = line[:-1]
        elif line.count(" ") >= 2:
            _, kind, name = line.split(" ", 2)
            symbols.append((member, kind, name))
    return symbols


def nm(path):
    return parse_nm(run(["nm", "-C", "--defined-only", path]))


# The classes of the unit types: their operators are their arithmetic, so
# which of them an executable happens to call says nothing about dead code.
UNIT_HEADERS = ("src/common/time.h", "src/common/units.h")
CLASS_RE = re.compile(r"^(?:class|struct)\s+(\w+)\s*(?:final\s*)?\{",
                      re.MULTILINE)


def unit_types(root):
    return {"dlte::" + name for header in UNIT_HEADERS
            for name in CLASS_RE.findall((root / header).read_text())}


def split_function(name):
    """(qualified name, parameter list) of a demangled function, without the
    return type nm -C prints before a template instantiation, e.g.
    "int dlte::f<int>(int)" -> ("dlte::f<int>", "int")."""
    depth, start, i = 0, 0, 0
    while i < len(name):
        if depth == 0 and name.startswith("operator", i) and (
                i == 0 or name[i - 1] == ":"):
            i += len("operator")
            i = name.index("(", i + 2 if name.startswith("()", i) else i)
            break
        c = name[i]
        if depth == 0 and c == "(":
            break
        if c in "<({[":
            depth += 1
        elif c in ">)}]":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1
        i += 1
    close, depth = i, 0
    for close in range(i, len(name)):
        depth += {"(": 1, ")": -1}.get(name[close], 0)
        if depth == 0:
            break
    return name[start:i], name[i + 1:close]


def qualifiers(qualified):
    """The "::"-separated parts of a qualified name, template arguments
    left on their part."""
    parts, depth, last = [], 0, 0
    for i, c in enumerate(qualified):
        depth += {"<": 1, ">": -1, "(": 1, ")": -1}.get(c, 0)
        if depth == 0 and qualified.startswith("::", i):
            parts.append(qualified[last:i])
            last = i + 2
    return [p for p in parts if p] + [qualified[last:]]


def is_src_function(kind, name, units):
    """Whether the link pass judges an nm symbol. Out-of-line (T) functions
    are judged whatever their name. Inline (W) ones are judged when they
    are a dlte:: function someone wrote; four kinds are not."""
    if kind == "T":
        return True
    if kind != "W":
        return False
    # A lambda, or a template instantiated on one, lives and dies with the
    # function that spells the lambda out.
    if "{lambda(" in name:
        return False
    qualified, params = split_function(name)
    # A std:: (or other library) instantiation whose return type happens to
    # be a dlte:: type is library code, whatever it returns.
    if not qualified.startswith("dlte::"):
        return False
    parts = qualifiers(qualified)
    owner = "::".join(parts[:-1])
    cls = re.sub(r"<.*", "", parts[-2]) if len(parts) > 1 else ""
    fn = re.sub(r"<.*", "", parts[-1])
    # Special members: the compiler writes one for whatever copies, moves,
    # builds or drops the class, and nm cannot tell those from written ones.
    # They live and die with their class, which the symbol pass judges.
    own = (f"{owner} const&", f"{owner}&&")
    if ((fn == cls and params in ("",) + own) or (fn == "~" + cls)
            or (fn == "operator=" and params in own)):
        return False
    # The unit types' operators are their arithmetic: a type is kept whole.
    if fn.startswith("operator") and (
            owner in units or any(u in params for u in units)):
        return False
    return True


def dead_functions(root):
    """The link pass: [(source relative to src/, function)] for each global
    function a src/ archive defines that no bench, example or benchmark job
    executable keeps."""
    main_targets = []
    for top, target_re in TARGET_RES:
        found = target_re.findall((root / top / "CMakeLists.txt").read_text())
        if not found:
            raise RuntimeError(f"{top}/CMakeLists.txt declares no target")
        main_targets += found
    tree = root / LINK_TREE
    exes = (build_tree(root, tree / "main", main_targets)
            + build_tree(root / "perfbench", tree / "perfbench", [PERFJOB]))
    kept = {name for exe in exes for _, _, name in nm(exe)}
    src = tree / "main" / "src"
    archives = [(archive.parent.relative_to(src).as_posix(), nm(archive))
                for archive in sorted(src.rglob("*.a"))]
    return unused_functions(archives, kept, unit_types(root))


def unused_functions(archives, kept, units):
    """[(source relative to src/, function)] for each function the
    `(module, nm symbols)` archives define that is not in `kept`. Every
    object that sees an inline function carries a copy of it, so an inline
    function is reported, and kept, by name alone, as source "inline"."""
    dead = set()
    for module, symbols in archives:
        for member, kind, name in symbols:
            if name in kept or not is_src_function(kind, name, units):
                continue
            source = (f"{module}/{member.removesuffix('.o')}" if kind == "T"
                      else "inline")
            if (source, name) not in KEEP and name not in KEEP:
                dead.add((source, name))
    return sorted(dead)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repository root (default: this script's repo)")
    args = parser.parse_args(argv)
    texts = scan(args.root)
    live = live_files(texts)
    dead = sorted(h[len("src/"):] for h in texts
                  if h.startswith("src/") and is_header(h) and h not in live)
    symbols = dead_symbols(texts, live)
    try:
        functions = dead_functions(args.root)
    except (OSError, RuntimeError) as err:
        print(f"reachability: link pass failed: {err}", file=sys.stderr)
        return 1
    if not dead and not symbols and not functions:
        print("reachability: every src/ header, namespace-scope symbol and "
              "function has a non-test user")
        return 0
    if dead:
        print(f"reachability: {len(dead)} src/ header(s) reached only from "
              "tests (wire them into a bench/example or delete them):",
              file=sys.stderr)
        for header in dead:
            print(header)
    if symbols:
        print(f"reachability: {len(symbols)} namespace-scope symbol(s) "
              "reached only from tests:", file=sys.stderr)
        for header, kind, name in symbols:
            print(f"{header}: {kind} {name}")
    if functions:
        print(f"reachability: {len(functions)} src/ function(s) that no bench, "
              "example or benchmark job executable links:", file=sys.stderr)
        for source, name in functions:
            print(f"{source}: {name}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
