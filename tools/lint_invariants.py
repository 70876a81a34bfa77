#!/usr/bin/env python3
"""Project invariant lint: machine-checks the determinism contract.

The repo's headline guarantee (docs/ARCHITECTURE.md, "Determinism contract")
is that curation output is byte-identical across threads x morsels x chunk
sizes x snapshot round-trips. Most of that is enforced dynamically by the
differential tests; this lint enforces the *static* conventions that keep
those tests meaningful:

  determinism-random   No rand()/srand()/std::random_device/time()-style
                       entropy outside src/util/rng.* — all randomness flows
                       through the seeded util::Rng so every run replays.
  unordered-iteration  No range-for directly over an unordered container:
                       iteration order is implementation-defined, so any
                       value that escapes such a loop can drift between
                       builds. Iterate a sorted copy or an index instead,
                       or annotate why order provably cannot escape.
  unordered-in-output  Formatter/output translation units (the byte-identity
                       anchors) may not mention unordered containers at all.
  raw-assert           Library code uses RDFPARAMS_DCHECK, never bare
                       assert(), so debug and release builds differ in
                       exactly one documented way (util/status.h defines it).
  include-guard        Header guards must spell RDFPARAMS_<PATH>_H_ so a
                       copy-pasted guard can never silently mask a header.
  float-format         printf-style %g/%e/%f conversions are banned outside
                       the anchored "%.17g" protocol formatters
                       (src/server/protocol.cc, src/rdf/term.cc): float
                       rendering with fewer digits is lossy, and lossy
                       rendering inside a byte-identity surface hides drift.
                       Human-facing diagnostics annotate an allow.
  void-discard         A C-style (void)fn(...) cast silences [[nodiscard]]
                       without leaving an audit trail; intentional Status /
                       Result drops must go through util::IgnoreStatus
                       (greppable, carries a reason). Plain `(void)var;`
                       unused-binding suppressions stay legal.
  incremental-reserve  No `x.reserve(x.size() + k)` in library code: called
                       once per chunk it reallocates to exactly the new
                       size every time, copying the whole buffer again
                       (O(n^2 / chunk) copying plus a fresh large mapping
                       per chunk). Grow geometrically instead
                       (engine::GrowFor), or annotate a one-shot call.

Suppression: append `lint:allow(<rule-id>): <reason>` in a comment on the
offending line. The reason is mandatory prose for the reviewer; the lint only
checks the marker. Every suppression is greppable.

Usage: lint_invariants.py [--root DIR] [--list-rules]
Exit status: 0 clean, 1 violations, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

# Files whose whole job is deterministic text/byte output. They anchor the
# byte-identity contract, so nondeterministic containers are banned outright
# (unordered-in-output) rather than merely at iteration sites.
OUTPUT_FILES = {
    "src/server/protocol.cc",
    "src/server/wire.cc",
    "src/rdf/describe.cc",
    "src/optimizer/plan.cc",
    "src/util/table.cc",
    "src/core/workload_io.cc",
    "src/stats/descriptive.cc",
    "src/stats/histogram.cc",
}

# The only files allowed to spell the round-trip-exact protocol conversion.
ANCHORED_FLOAT_FILES = {
    "src/server/protocol.cc",
    "src/rdf/term.cc",
}

# All randomness funnels through the seeded PCG64 wrapper.
RNG_FILES = {
    "src/util/rng.h",
    "src/util/rng.cc",
}

ASSERT_EXEMPT_FILES = {
    "src/util/status.h",  # defines RDFPARAMS_DCHECK in terms of assert()
}

LIB_DIRS = ("src",)
ALL_DIRS = ("src", "tests", "bench", "tools", "examples", "fuzz")


def lex(text):
    """Split C++ source into (code_lines, literal_spans).

    code_lines: list of per-line code with comments and literal bodies
    removed (quotes kept as empty "" markers).
    literal_spans: list of (line_number_1based, literal_text) for every
    string literal, including each line of a multi-line raw string.
    """
    n = len(text)
    i = 0
    line = 1
    code = [""]
    literals = []

    def code_append(ch):
        code[-1] += ch

    def newline():
        nonlocal line
        line += 1
        code.append("")

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            newline()
            i += 1
        elif c == "/" and nxt == "/":
            j = text.find("\n", i)
            i = n if j == -1 else j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            line += text.count("\n", i, j)
            code.extend([""] * text.count("\n", i, j))
            i = j
        elif c == "R" and nxt == '"' and not (i > 0 and
                                              (text[i - 1].isalnum() or
                                               text[i - 1] == "_")):
            m = re.match(r'R"([^()\s\\]{0,16})\(', text[i:])
            if not m:
                code_append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n if j == -1 else j
            body = text[i + m.end():j]
            for k, part in enumerate(body.split("\n")):
                literals.append((line + k, part))
            line += body.count("\n")
            code_append('""')
            code.extend([""] * body.count("\n"))
            i = n if j == n else j + len(close)
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break  # unterminated; be forgiving
                j += 1
            literals.append((line, text[i + 1:j]))
            code_append('""')
            i = min(j + 1, n)
        elif c == "'" and not (i > 0 and
                               (text[i - 1].isalnum() or text[i - 1] == "_")):
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\\":
                    j += 1
                elif text[j] == "\n":
                    break
                j += 1
            code_append("''")
            i = min(j + 1, n)
        else:
            code_append(c)
            i += 1
    return code, literals


def allowed(raw_lines, lineno, rule):
    if lineno - 1 >= len(raw_lines):
        return False
    return f"lint:allow({rule})" in raw_lines[lineno - 1]


RANDOM_RE = re.compile(
    r"\b(?:rand|srand|rand_r|drand48|time|clock|gettimeofday|"
    r"localtime|gmtime)\s*\(|\brandom_device\b")
UNORDERED_ITER_RE = re.compile(r"\bfor\s*\([^;)]*:\s*[^)]*\bunordered_")
RAW_ASSERT_RE = re.compile(r"\bassert\s*\(")
FLOAT_FMT_RE = re.compile(r"%[-+ #0-9.*]*[gGeEf](?![A-Za-z0-9_%])")
VOID_DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:.]*(?:->\w+)*\s*\(")
# `recv.reserve(recv.size() + ...)` / `recv->reserve(recv->size() + ...)`
# with the same receiver expression on both sides.
INCREMENTAL_RESERVE_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_][\w.\[\]>-]*?)\s*(\.|->)\s*reserve\s*\(\s*"
    r"\1\s*\2\s*size\s*\(\s*\)\s*\+")


def expected_guard(rel):
    # Library headers drop the src/ prefix (RDFPARAMS_UTIL_STATUS_H_);
    # tests/ and bench/ headers keep their directory.
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    stem = re.sub(r"[/.]", "_", rel)
    return "RDFPARAMS_" + stem.upper() + "_"


def lint_file(root, rel, violations):
    path = os.path.join(root, rel)
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.split("\n")
    code, literals = lex(text)
    in_lib = rel.startswith("src/")

    def report(lineno, rule, msg):
        if not allowed(raw_lines, lineno, rule):
            violations.append((rel, lineno, rule, msg))

    # -- determinism-random: everywhere but the rng funnel itself.
    if rel not in RNG_FILES:
        for ln, code_line in enumerate(code, 1):
            m = RANDOM_RE.search(code_line)
            if m:
                report(ln, "determinism-random",
                       f"raw entropy source {m.group(0).strip()!r}; use the "
                       "seeded util::Rng (src/util/rng.h)")

    # -- unordered iteration / unordered in output files (library only).
    if in_lib:
        for ln, code_line in enumerate(code, 1):
            if UNORDERED_ITER_RE.search(code_line):
                report(ln, "unordered-iteration",
                       "range-for over an unordered container: iteration "
                       "order is implementation-defined; iterate a sorted "
                       "copy or annotate why order cannot escape")
        if rel in OUTPUT_FILES:
            for ln, code_line in enumerate(code, 1):
                if "unordered_" in code_line:
                    report(ln, "unordered-in-output",
                           "unordered container in a formatter/output "
                           "translation unit (byte-identity anchor)")

    # -- raw assert (library only; status.h defines the macro).
    if in_lib and rel not in ASSERT_EXEMPT_FILES:
        for ln, code_line in enumerate(code, 1):
            if RAW_ASSERT_RE.search(code_line):
                report(ln, "raw-assert",
                       "bare assert() in library code; use RDFPARAMS_DCHECK "
                       "(util/status.h)")

    # -- include guards (headers anywhere).
    if rel.endswith(".h"):
        want = expected_guard(rel)
        ifndef = None
        for ln, code_line in enumerate(code, 1):
            m = re.match(r"\s*#\s*ifndef\s+(\S+)", code_line)
            if m:
                ifndef = (ln, m.group(1))
                break
        if ifndef is None:
            report(1, "include-guard", f"missing include guard {want}")
        elif ifndef[1] != want:
            report(ifndef[0], "include-guard",
                   f"guard {ifndef[1]} should be {want}")
        else:
            define_ok = any(
                re.match(r"\s*#\s*define\s+" + re.escape(want) + r"\b", cl)
                for cl in code)
            if not define_ok:
                report(ifndef[0], "include-guard",
                       f"#define {want} missing after #ifndef")

    # -- float formats inside string literals (library only).
    if in_lib:
        for ln, lit in literals:
            for m in FLOAT_FMT_RE.finditer(lit):
                if rel in ANCHORED_FLOAT_FILES and m.group(0) == "%.17g":
                    continue
                report(ln, "float-format",
                       f"float conversion {m.group(0)!r} outside the "
                       "anchored %.17g protocol formatters; route through "
                       "util::FormatSig/FormatDuration or annotate")

    # -- exact incremental reserves (library only).
    if in_lib:
        for ln, code_line in enumerate(code, 1):
            m = INCREMENTAL_RESERVE_RE.search(code_line)
            if m:
                report(ln, "incremental-reserve",
                       f"{m.group(1)}{m.group(2)}reserve({m.group(1)}"
                       f"{m.group(2)}size() + ...) reallocates to the exact "
                       "size on every call; grow geometrically "
                       "(engine::GrowFor) or annotate a one-shot call")

    # -- (void) discards of call expressions (all trees).
    for ln, code_line in enumerate(code, 1):
        if VOID_DISCARD_RE.search(code_line):
            report(ln, "void-discard",
                   "(void)-cast of a call expression defeats [[nodiscard]] "
                   "without an audit trail; use util::IgnoreStatus(st, "
                   "\"reason\") or bind the value")


def collect_files(root):
    out = []
    for d in ALL_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".h", ".cc")):
                    out.append(os.path.relpath(os.path.join(dirpath, name),
                                               root))
    return sorted(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--list-rules", action="store_true")
    args = ap.parse_args()

    if args.list_rules:
        print(__doc__)
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    files = collect_files(root)
    if not files:
        print("lint_invariants: no sources found under", root,
              file=sys.stderr)
        return 2

    violations = []
    for rel in files:
        lint_file(root, rel, violations)

    violations.sort(key=lambda v: (v[0], v[1], v[2]))
    for rel, ln, rule, msg in violations:
        print(f"{rel}:{ln}: [{rule}] {msg}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s) in "
              f"{len(set(v[0] for v in violations))} file(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: {len(files)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
