#!/usr/bin/env python3
"""sim-lint: determinism / shard-safety static checks for the Cicero tree.

Registered as a ctest (`simlint`), wired into scripts/lint.sh and the CI
`analyze` job.  The parallel simulation core (DESIGN.md §12) promises
that an N-thread run is a bit-identical pure function of its inputs; the
dynamic proofs (N-vs-1 equivalence, the seed sweep, the hash-salt sweep,
TSan) can only catch a violation a test happens to execute.  This linter
turns the determinism contract into a CI-time guarantee (DESIGN.md §13):

  ambient-nondet       wall-clock / OS-entropy reads anywhere in src/ —
                       std::random_device, libc rand*/time()/clock(),
                       std::chrono::{system,steady,high_resolution}_clock
                       ::now, and getenv outside one-time config load.
                       Sim time comes from Simulator::now(); randomness
                       from the seeded util::Rng / crypto::Drbg streams.
  unordered-iter       iteration (range-for or .for_each) over a hash
                       container — FlatHashMap/FlatHashSet or
                       std::unordered_* — in a translation unit that can
                       schedule events, send messages or emit
                       traces/metrics (everything under src/ except the
                       crypto and util leaf libraries).  Hash-order
                       iteration feeding an emitting path makes run
                       output a function of table placement (and breaks
                       the hash-salt sweep).  Escape hatches: sort
                       within the next few lines (collect-then-sort), or
                       a reviewed `simlint-ordered:` justification.
  unordered-emission   a trace/report emission call reached directly from
                       a hash-container iteration (within the loop window,
                       before any sort).  Stricter than unordered-iter:
                       artifact bytes (trace events, report sections) must
                       be placement-independent, so a `simlint-ordered:`
                       order-insensitivity claim does NOT absolve the
                       site — emit from a sorted copy, or carry an
                       explicit `simlint-allow: unordered-emission`.
  pointer-key          pointer-keyed containers or std::less<T*> —
                       address-based placement/ordering differs run to
                       run under ASLR, so anything iterated or compared
                       through it is nondeterministic.
  mutable-global       namespace-scope / static-storage mutable state in
                       src/sim + src/core that is neither std::atomic,
                       shard-striped (alignas(64)), nor mutex-guarded —
                       unsynchronized cross-shard state is a data race in
                       parallel runs and a hidden input in sequential
                       ones.

Suppressions: a line (or the comment block immediately above) containing
`simlint-allow:` is exempt; the text after the colon must name the rule
and justify the exception.  `simlint-ordered:` is the dedicated
justification marker for unordered-iter sites whose order provably does
not matter (e.g. building an order-insensitive index).

The file walking, suppression parsing and fixture self-test harness live
in tools/lintlib.py, shared with ctlint.

Usage:
  simlint.py [--root DIR]    lint the tree, exit 1 on violations
  simlint.py --self-test     run the linter against tools/simlint/fixtures
                             and verify it fires (and stays quiet) exactly
                             where expected
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import lintlib  # noqa: E402
from lintlib import Violation, allowed, strip_noise  # noqa: E402

ALLOW_MARK = "simlint-allow:"
ORDERED_MARK = "simlint-ordered:"

# Translation units that can schedule events, send messages or emit
# traces/metrics.  crypto/ and util/ are leaf libraries with none of
# those APIs; every other src/ directory links against the simulator,
# the network, or the observability layer.
EVENT_DIRS = ("src/sim/", "src/core/", "src/sched/", "src/net/", "src/bft/",
              "src/obs/", "src/workload/")

# Directories where shared mutable state is a shard-safety hazard (the
# code the parallel engine runs concurrently).
SHARD_STATE_DIRS = ("src/sim/", "src/core/")

# --- ambient-nondet patterns -------------------------------------------
# The word boundary is guarded against member access (`.time(`,
# `->now(`), qualification (`sim::time`) and identifier suffixes
# (`next_time(`), so only the libc / std free calls match.
RANDOM_DEVICE_RE = re.compile(r"\brandom_device\b")
LIBC_RAND_RE = re.compile(
    r"(?<!::)(?<!\.)(?<!->)\b(?:(?:rand|srand|drand48|lrand48|rand_r)\s*\(|random\s*\(\s*\))")
TIME_CALL_RE = re.compile(r"(?<![\w:.>])(?:time|clock)\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
CHRONO_NOW_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b")
GETENV_RE = re.compile(r"\bgetenv\s*\(")

# --- unordered-iter patterns -------------------------------------------
HASH_CONTAINER_RE = (
    r"(?:util\s*::\s*)?FlatHashMap|(?:util\s*::\s*)?FlatHashSet|"
    r"std\s*::\s*unordered_(?:multi)?(?:map|set)")
# A declaration introduces a name the TU may later iterate: container
# template, its arguments (lazily, same line), then the identifier.
HASH_DECL_RE = re.compile(
    r"(?:" + HASH_CONTAINER_RE + r")\s*<.*>\s+(\w+)\s*[;{=(]")
FOR_EACH_RE = re.compile(r"(?<!std::)(?:\.|->)for_each\s*\(")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&*\s\[\]]+?:\s*([^)]+)\)")
SORT_RE = re.compile(r"\bsort\s*\(")
SORT_WINDOW = 5  # lines after an iteration site in which a sort() absolves it

# --- unordered-emission patterns ---------------------------------------
# Calls that append to an ordered output artifact: Tracer events (every
# recording method) and RunReport sections.  Metrics cells are excluded —
# the registry is keyed by name, so write order cannot leak into output.
EMIT_RE = re.compile(
    r"\btrace\s*(?:\.|->)\s*(?:instant|counter|begin|end|complete|async_begin|"
    r"async_end|flow_start|flow_step|flow_end)\s*\(|"
    r"\breport\s*(?:\.|->)\s*(?:add_\w+|set_meta)\s*\(|"
    r"(?:\.|->)\s*write_chrome_trace\s*\(")
EMIT_WINDOW = 8  # lines after an iteration site scanned for emission calls

# --- pointer-key patterns ----------------------------------------------
PTR_KEY_RE = re.compile(
    r"(?:FlatHashMap|FlatHashSet|std\s*::\s*(?:unordered_)?(?:multi)?(?:map|set))"
    r"\s*<\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
LESS_PTR_RE = re.compile(r"std\s*::\s*less\s*<[^<>]*\*\s*>")

# --- mutable-global patterns -------------------------------------------
STATIC_DECL_RE = re.compile(r"^\s*(?:static|thread_local)\s+(?:thread_local\s+)?(.*)$")
STATIC_OK_RE = re.compile(
    r"^(?:const\b|constexpr\b|inline\s+const\b|inline\s+constexpr\b|assert\b)")
SYNC_OK_RE = re.compile(
    r"std\s*::\s*atomic|util\s*::\s*Mutex|\bMutex\b|std\s*::\s*mutex|"
    r"alignas\s*\(\s*64\s*\)|CICERO_GUARDED_BY")


def sim_allowed(lines: list[str], idx: int) -> bool:
    return allowed(lines, idx, ALLOW_MARK)


def ordered_justified(lines: list[str], idx: int) -> bool:
    return allowed(lines, idx, ORDERED_MARK) or sim_allowed(lines, idx)


def hash_container_names(lines: list[str]) -> set[str]:
    """Names declared (in this file) with a hash-container type.  Callers
    feed in sibling headers too, so members declared in foo.hpp are known
    when foo.cpp iterates them."""
    names: set[str] = set()
    for raw in lines:
        clean = strip_noise(raw)
        m = HASH_DECL_RE.search(clean)
        if m:
            names.add(m.group(1))
    return names


def emission_before_sort(lines: list[str], idx: int) -> int | None:
    """Index of the first trace/report emission call within EMIT_WINDOW
    lines of the iteration at idx, or None if a sort() intervenes first
    (the loop only collects; emission happens from the sorted copy)."""
    for j in range(idx, min(len(lines), idx + EMIT_WINDOW + 1)):
        clean = strip_noise(lines[j])
        if j > idx and SORT_RE.search(clean):
            return None
        if EMIT_RE.search(clean):
            return j
    return None


def sorted_soon_after(lines: list[str], idx: int) -> bool:
    """True if a sort() call appears on the site line or within the next
    SORT_WINDOW lines — the collect-then-sort idiom, where the iteration
    only gathers entries and the order is fixed before anything acts."""
    for j in range(idx, min(len(lines), idx + SORT_WINDOW + 1)):
        if SORT_RE.search(strip_noise(lines[j])):
            return True
    return False


def sibling_header_lines(path: Path) -> list[str]:
    """Lines of the same-stem header next to a .cpp (where members that
    the .cpp iterates are declared)."""
    if path.suffix not in (".cpp", ".cc"):
        return []
    for ext in (".hpp", ".h"):
        header = path.with_suffix(ext)
        if header.is_file():
            try:
                return lintlib.read_lines(header)
            except OSError:
                return []
    return []


def lint_file(path: Path, rel: str, out: list[Violation]) -> None:
    try:
        lines = lintlib.read_lines(path)
    except OSError as e:
        out.append(Violation(rel, 0, "io-error", str(e)))
        return

    in_event_tu = any(rel.startswith(d) for d in EVENT_DIRS)
    in_shard_dirs = any(rel.startswith(d) for d in SHARD_STATE_DIRS)

    iterable_names = hash_container_names(lines)
    iterable_names |= hash_container_names(sibling_header_lines(path))

    for i, raw in enumerate(lines):
        clean = strip_noise(raw)
        lineno = i + 1

        # ambient-nondet: everywhere under src/.
        if RANDOM_DEVICE_RE.search(clean) and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "ambient-nondet",
                                 "std::random_device is OS entropy; derive randomness "
                                 "from the seeded util::Rng / crypto::Drbg streams"))
        if LIBC_RAND_RE.search(clean) and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "ambient-nondet",
                                 "libc randomness is ambient nondeterminism; use the "
                                 "seeded RNG streams"))
        if TIME_CALL_RE.search(clean) and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "ambient-nondet",
                                 "wall-clock read; simulation time comes from "
                                 "Simulator::now()"))
        if CHRONO_NOW_RE.search(clean) and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "ambient-nondet",
                                 "std::chrono clock read; simulation time comes from "
                                 "Simulator::now() (wall timing belongs in bench/)"))
        if GETENV_RE.search(clean) and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "ambient-nondet",
                                 "getenv outside config load makes the environment a "
                                 "hidden input; justify with simlint-allow"))

        # pointer-key: everywhere under src/.
        if (PTR_KEY_RE.search(clean) or LESS_PTR_RE.search(clean)) \
                and not sim_allowed(lines, i):
            out.append(Violation(rel, lineno, "pointer-key",
                                 "pointer-keyed container / address ordering varies "
                                 "under ASLR; key by id or content instead"))

        # unordered-iter / unordered-emission: event-relevant TUs only.
        if in_event_tu:
            hit = bool(FOR_EACH_RE.search(clean))
            if not hit:
                m = RANGE_FOR_RE.search(clean)
                if m:
                    seq = m.group(1).strip()
                    seq = re.sub(r"^this\s*->\s*", "", seq)
                    if seq in iterable_names:
                        hit = True
            if hit:
                if not ordered_justified(lines, i) \
                        and not sorted_soon_after(lines, i):
                    out.append(Violation(rel, lineno, "unordered-iter",
                                         "hash-order iteration in an event-emitting TU; "
                                         "sort first or justify with simlint-ordered:"))
                emit_at = emission_before_sort(lines, i)
                if emit_at is not None and not sim_allowed(lines, i) \
                        and not sim_allowed(lines, emit_at):
                    out.append(Violation(rel, emit_at + 1, "unordered-emission",
                                         "trace/report emission fed by hash-order "
                                         "iteration makes artifact bytes a function of "
                                         "table placement; emit from a sorted copy"))

        # mutable-global: the shard-safety surface (src/sim + src/core).
        if in_shard_dirs:
            m = STATIC_DECL_RE.match(clean)
            if m and not STATIC_OK_RE.match(m.group(1).strip()) \
                    and not SYNC_OK_RE.search(clean) \
                    and not sim_allowed(lines, i):
                decl = m.group(1)
                eq = decl.find("=")
                paren = decl.find("(")
                is_function = paren != -1 and (eq == -1 or paren < eq)
                if not is_function and decl.rstrip().endswith((";", "{", "}")):
                    out.append(Violation(rel, lineno, "mutable-global",
                                         "mutable static state must be std::atomic, "
                                         "shard-striped (alignas(64)), or mutex-guarded"))


def lint_tree(root: Path) -> list[Violation]:
    out: list[Violation] = []
    for path, rel in lintlib.iter_source_files(root, ("src",)):
        lint_file(path, rel, out)
    return out


SELF_TEST_CASES = (
    # Ambient nondeterminism fires everywhere under src/.
    lintlib.SelfTestCase("bad_ambient.cpp", "src/sim/bad_ambient.cpp",
                         {"ambient-nondet"}),
    # Hash-order iteration fires in event TUs ...
    lintlib.SelfTestCase("bad_unordered_iter.cpp", "src/sched/bad_unordered_iter.cpp",
                         {"unordered-iter"}),
    # ... and stays quiet in the crypto/util leaf libraries.
    lintlib.SelfTestCase("bad_unordered_iter.cpp", "src/crypto/bad_unordered_iter.cpp",
                         set()),
    lintlib.SelfTestCase("bad_pointer_key.cpp", "src/core/bad_pointer_key.cpp",
                         {"pointer-key"}),
    # Emission from a hash loop fires even under a simlint-ordered:
    # justification (artifact bytes must be placement-independent) ...
    lintlib.SelfTestCase("bad_unordered_emission.cpp",
                         "src/core/bad_unordered_emission.cpp",
                         {"unordered-emission"}),
    # ... while sorted-copy emission and an explicit allow stay clean.
    lintlib.SelfTestCase("good_ordered_emission.cpp",
                         "src/core/good_ordered_emission.cpp", set()),
    # Mutable statics fire in the shard-safety dirs ...
    lintlib.SelfTestCase("bad_mutable_global.cpp", "src/sim/bad_mutable_global.cpp",
                         {"mutable-global"}),
    # ... and are out of scope elsewhere (ctlint/util conventions govern).
    lintlib.SelfTestCase("bad_mutable_global.cpp", "src/obs/bad_mutable_global.cpp",
                         set()),
    # Sorted, justified, atomic, striped and suppressed sites are clean.
    lintlib.SelfTestCase("good_usage.cpp", "src/sim/good_usage.cpp", set()),
)


def self_test(_root: Path) -> int:
    fixtures = Path(__file__).resolve().parent / "fixtures"
    return lintlib.run_self_test("simlint", fixtures, SELF_TEST_CASES, lint_file)


if __name__ == "__main__":
    sys.exit(lintlib.main("simlint", __doc__, lint_tree, self_test,
                          Path(__file__).resolve().parents[2]))
