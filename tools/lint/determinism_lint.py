#!/usr/bin/env python3
"""Determinism linter for the S4D-Cache simulator.

The simulator's contract (ROADMAP, DESIGN §"Determinism") is that a run is a
pure function of its configuration and seed: same .ini + same --seed =>
byte-identical output. This linter scans the C++ sources for constructs that
historically break that contract:

  wall-clock       std::chrono::system_clock / steady_clock / time(NULL) /
                   gettimeofday / clock_gettime / localtime — sim code must
                   take time from sim::Engine::now(), never the host.
  ambient-rng      std::rand / srand / random_device / mt19937 seeded outside
                   src/common/rng.h — all randomness must flow through the
                   seeded splitmix64 Rng so --seed reaches every consumer.
  unordered-iter   range-for / iterator loops over std::unordered_map or
                   std::unordered_set members — iteration order depends on
                   hash seeding and insertion history, so any loop that
                   feeds output, scheduling, or accumulation is a latent
                   nondeterminism bug. Audited-safe loops are allowlisted.
  pointer-keys     std::map/std::set keyed by a raw pointer type — ordering
                   then depends on heap addresses (ASLR), which differ per
                   run even with identical seeds.
  float-simtime    float/double arithmetic accumulating into SimTime outside
                   src/common/sim_time.* — FP rounding differs across
                   -ffast-math / FMA / platform, so sim-time math must stay
                   integral (nanoseconds) except in the audited conversion
                   helpers.
  thread-primitive std::thread / mutex / atomic / condition_variable /
                   thread_local — OS scheduling is nondeterministic, so any
                   code where thread interleaving could influence simulation
                   state breaks the contract. The audited exceptions (the
                   seed-sweep runner's worker pool, the kvstore's
                   thread-safety mutex) are structured so threads never
                   decide simulation results, and each carries an
                   allowlist justification saying why.

Usage:
  tools/lint/determinism_lint.py [--root REPO] [--allowlist FILE]
                                 [--audit-allowlist] [--self-test]

Exit status: 0 = clean, 1 = findings, 2 = usage/config error.

--audit-allowlist prints one line per allowlist entry with the number of
findings it currently suppresses, so reviewers can spot entries carrying
more weight than their justification claims (or none — those are the
stale entries, which fail the lint as usual).

Findings can be suppressed via the allowlist file (one entry per line):
  <relative-path>:<check-id>: <justification>
The justification is mandatory — an entry without one is a config error.
Unused allowlist entries are reported as errors too, so the file cannot
accumulate stale exemptions.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys
import tempfile

CHECKS = {
    "wall-clock": re.compile(
        r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
        r"|\bgettimeofday\s*\("
        r"|\bclock_gettime\s*\("
        r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
        r"|\blocaltime(_r)?\s*\("
        r"|\bgmtime(_r)?\s*\("
    ),
    "ambient-rng": re.compile(
        r"\bstd::rand\s*\("
        r"|\bsrand\s*\("
        r"|\bstd::random_device\b"
        r"|\brandom_device\s+\w+"
        r"|\bstd::mt19937(_64)?\b"
    ),
    "unordered-iter": re.compile(
        # `for (... : expr)` where expr mentions an unordered container, or
        # a begin() call on something this file declared unordered (handled
        # via the member-name pass below).
        r"for\s*\([^;)]*:\s*[^)]*unordered_(map|set)"
    ),
    "pointer-keys": re.compile(
        r"std::(map|set|multimap|multiset)\s*<\s*(const\s+)?\w+(::\w+)*\s*\*"
    ),
    "float-simtime": re.compile(
        # double/float expression assigned or added into a SimTime lvalue.
        r"\bSimTime\s+\w+\s*=\s*[^;]*\b(double|float)\b"
        r"|\b(double|float)\b[^;]*;\s*//\s*simtime"
    ),
    "thread-primitive": re.compile(
        r"\bstd::(thread|jthread|mutex|recursive_mutex|shared_mutex"
        r"|timed_mutex|condition_variable(_any)?|atomic\w*|lock_guard"
        r"|unique_lock|scoped_lock|shared_lock|promise|future|async|barrier"
        r"|latch|counting_semaphore|binary_semaphore)\b"
        r"|\bthread_local\b"
    ),
}

# Files whose *purpose* is the audited exception for a check.
INTRINSIC_EXEMPT = {
    "ambient-rng": {"src/common/rng.h"},
    "float-simtime": {"src/common/sim_time.h", "src/common/sim_time.cc"},
}

SCAN_DIRS = ("src", "bench", "tests", "tools")
SCAN_SUFFIXES = {".cc", ".h"}

LINE_COMMENT = re.compile(r"//[^\n]*")
BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')

# Declared-unordered member names, e.g. `std::unordered_map<...> open_files_;`
UNORDERED_MEMBER = re.compile(
    r"std::unordered_(?:map|set)\s*<[^;{}]*>\s*(\w+)\s*(?:;|=|\{)"
)


def strip_noise(text: str) -> str:
    """Blank out comments and string literals, preserving line numbers."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    text = BLOCK_COMMENT.sub(blank, text)
    text = LINE_COMMENT.sub(blank, text)
    return STRING_LIT.sub(blank, text)


def find_unordered_iteration(text: str):
    """Yield (line, snippet) for loops that iterate an unordered member.

    Two patterns: a range-for whose range expression names a member that this
    translation unit (or its matching header, scanned separately) declared as
    unordered, and a direct range-for over an `unordered_...` expression.
    """
    members = set(UNORDERED_MEMBER.findall(text))
    for m in re.finditer(r"for\s*\(([^;{}]*?):([^){}]*)\)", text):
        range_expr = m.group(2)
        line = text.count("\n", 0, m.start()) + 1
        if "unordered_" in range_expr:
            yield line, m.group(0).strip()
            continue
        name = range_expr.strip().split(".")[-1].split("->")[-1].strip()
        if name in members:
            yield line, m.group(0).strip()


def scan_file(path: pathlib.Path, rel: str):
    """Yield (check_id, line, snippet) findings for one file."""
    try:
        raw = path.read_text(errors="replace")
    except OSError as e:  # unreadable file: surface, do not crash
        yield "wall-clock", 0, f"unreadable: {e}"
        return
    text = strip_noise(raw)

    for check, pattern in CHECKS.items():
        if rel in INTRINSIC_EXEMPT.get(check, set()):
            continue
        if check == "unordered-iter":
            for line, snippet in find_unordered_iteration(text):
                yield check, line, snippet
            continue
        for m in pattern.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            snippet = text[m.start():m.end()].strip()
            yield check, line, snippet


def load_allowlist(path: pathlib.Path):
    """Parse `<path>:<check>: <justification>` lines. Returns dict or None."""
    entries = {}
    ok = True
    if not path.exists():
        return entries
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^([^\s:]+):([a-z-]+):\s*(.+)$", line)
        if not m:
            print(
                f"{path}:{lineno}: malformed allowlist entry (want "
                f"'<path>:<check-id>: <justification>'): {line}",
                file=sys.stderr,
            )
            ok = False
            continue
        rel, check, justification = m.groups()
        if check not in CHECKS:
            print(f"{path}:{lineno}: unknown check id '{check}'", file=sys.stderr)
            ok = False
            continue
        if len(justification) < 10:
            print(
                f"{path}:{lineno}: justification too short for {rel}:{check} "
                f"(explain *why* this is deterministic)",
                file=sys.stderr,
            )
            ok = False
            continue
        entries[(rel, check)] = {"line": lineno, "used": False, "count": 0}
    return entries if ok else None


def run(root: pathlib.Path, allowlist_path: pathlib.Path,
        audit: bool = False) -> int:
    allowlist = load_allowlist(allowlist_path)
    if allowlist is None:
        return 2

    findings = []
    for sub in SCAN_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SCAN_SUFFIXES:
                continue
            rel = path.relative_to(root).as_posix()
            for check, line, snippet in scan_file(path, rel):
                entry = allowlist.get((rel, check))
                if entry is not None:
                    entry["used"] = True
                    entry["count"] += 1
                    continue
                findings.append((rel, line, check, snippet))

    if audit:
        for (rel, check), meta in sorted(
            allowlist.items(), key=lambda kv: -kv[1]["count"]
        ):
            print(f"allowlist audit: {meta['count']:3d} finding(s) "
                  f"suppressed by {rel}:{check}")

    for rel, line, check, snippet in findings:
        print(f"{rel}:{line}: [{check}] {snippet}")

    stale = [
        (rel, check, meta["line"])
        for (rel, check), meta in allowlist.items()
        if not meta["used"]
    ]
    for rel, check, lineno in stale:
        print(
            f"{allowlist_path.name}:{lineno}: stale allowlist entry "
            f"{rel}:{check} (no matching finding — remove it)",
            file=sys.stderr,
        )

    if findings or stale:
        print(
            f"determinism lint: {len(findings)} finding(s), "
            f"{len(stale)} stale allowlist entr(y/ies)",
            file=sys.stderr,
        )
        return 1
    return 0


# --- self test -------------------------------------------------------------

BAD_TREE = {
    "src/clock_user.cc": (
        "#include <chrono>\n"
        "int main() {\n"
        "  auto t = std::chrono::system_clock::now();\n"
        "  (void)t;\n"
        "}\n"
    ),
    "src/rng_user.cc": (
        "#include <random>\n"
        "int f() { std::random_device rd; std::mt19937 g(rd()); return g(); }\n"
    ),
    "src/iter_user.cc": (
        "#include <unordered_map>\n"
        "struct S {\n"
        "  std::unordered_map<int, int> table_;\n"
        "  int Sum() {\n"
        "    int s = 0;\n"
        "    for (const auto& [k, v] : table_) s += v;\n"
        "    return s;\n"
        "  }\n"
        "};\n"
    ),
    "src/ptr_key.cc": (
        "#include <map>\n"
        "struct T;\n"
        "std::map<T*, int> scores;\n"
    ),
    "src/thread_user.cc": (
        "#include <thread>\n"
        "#include <atomic>\n"
        "std::atomic<int> counter{0};\n"
        "void Spawn() { std::thread([] { ++counter; }).join(); }\n"
    ),
    "src/tls_user.cc": (
        "// thread_local without std:: qualification must still be caught —\n"
        "// per-thread state is invisible nondeterminism.\n"
        "thread_local int scratch = 0;\n"
        "int Bump() { return ++scratch; }\n"
    ),
    "src/comment_only.cc": (
        "// std::chrono::system_clock is banned, this comment is fine\n"
        "/* std::rand() in a block comment is fine too */\n"
        "const char* s = \"std::random_device in a string is fine\";\n"
    ),
}

CLEAN_TREE = {
    "src/good.cc": (
        "#include <map>\n"
        "#include <unordered_map>\n"
        "#include \"common/rng.h\"\n"
        "struct G {\n"
        "  std::unordered_map<int, int> cache_;  // point lookups only\n"
        "  std::map<int, int> ordered_;\n"
        "  int Sum() {\n"
        "    int s = 0;\n"
        "    for (const auto& [k, v] : ordered_) s += v;\n"
        "    return s;\n"
        "  }\n"
        "};\n"
    ),
}


def write_tree(base: pathlib.Path, tree: dict) -> None:
    for rel, content in tree.items():
        p = base / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(content)


def self_test() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as td:
        tmp = pathlib.Path(td)

        bad = tmp / "bad"
        write_tree(bad, BAD_TREE)
        expected = {
            ("src/clock_user.cc", "wall-clock"),
            ("src/rng_user.cc", "ambient-rng"),
            ("src/iter_user.cc", "unordered-iter"),
            ("src/ptr_key.cc", "pointer-keys"),
            ("src/thread_user.cc", "thread-primitive"),
            ("src/tls_user.cc", "thread-primitive"),
        }
        found = set()
        for sub in ("src",):
            for path in sorted((bad / sub).rglob("*.cc")):
                rel = path.relative_to(bad).as_posix()
                for check, _line, _snippet in scan_file(path, rel):
                    found.add((rel, check))
        for want in expected:
            if want not in found:
                failures.append(f"bad tree: expected finding {want} missing")
        if any(rel == "src/comment_only.cc" for rel, _ in found):
            failures.append("bad tree: flagged comment/string-only file")

        clean = tmp / "clean"
        write_tree(clean, CLEAN_TREE)
        rc = run(clean, clean / "absent_allowlist.txt")
        if rc != 0:
            failures.append(f"clean tree: expected rc 0, got {rc}")

        # Allowlist round-trip: entry silences the finding; stale entry fails.
        allow = bad / "allow.txt"
        allow.write_text(
            "src/clock_user.cc:wall-clock: fixture timestamp, not sim time\n"
            "src/rng_user.cc:ambient-rng: fixture randomness, output unused\n"
            "src/iter_user.cc:unordered-iter: sum is order-independent\n"
            "src/ptr_key.cc:pointer-keys: map is never iterated\n"
            "src/thread_user.cc:thread-primitive: counter is a host-side "
            "metric, never read by sim state\n"
            "src/tls_user.cc:thread-primitive: fixture scratch value, "
            "never enters sim state\n"
        )
        rc = run(bad, allow)
        if rc != 0:
            failures.append(f"allowlisted bad tree: expected rc 0, got {rc}")
        # Audit mode reports per-entry counts without changing the verdict.
        rc = run(bad, allow, audit=True)
        if rc != 0:
            failures.append(f"audited allowlist: expected rc 0, got {rc}")
        allow.write_text(
            allow.read_text()
            + "src/comment_only.cc:wall-clock: stale entry, should be reported\n"
        )
        rc = run(bad, allow)
        if rc != 1:
            failures.append(f"stale allowlist: expected rc 1, got {rc}")

        # Malformed allowlist (no justification) is a config error.
        allow.write_text("src/clock_user.cc:wall-clock:\n")
        rc = run(bad, allow)
        if rc != 2:
            failures.append(f"malformed allowlist: expected rc 2, got {rc}")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("determinism_lint self-test: ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="repository root to scan (default: this script's repo)",
    )
    parser.add_argument(
        "--allowlist",
        type=pathlib.Path,
        default=None,
        help="allowlist file (default: <root>/tools/lint/determinism_allowlist.txt)",
    )
    parser.add_argument(
        "--audit-allowlist",
        action="store_true",
        help="print how many findings each allowlist entry suppresses",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the built-in fixture trees instead of scanning the repo",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    allowlist = args.allowlist or args.root / "tools/lint/determinism_allowlist.txt"
    return run(args.root.resolve(), allowlist, audit=args.audit_allowlist)


if __name__ == "__main__":
    sys.exit(main())
