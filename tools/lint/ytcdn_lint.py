#!/usr/bin/env python3
"""ytcdn_lint — project-invariant checker for the ytcdn reproduction.

The reproduction's numbers are only trustworthy if the simulator is
bit-deterministic under a fixed seed. This tool machine-enforces the
invariants that keep it that way (plus a few general hygiene rules):

  rng-source       No std::random_device, rand()/srand(), or default-seeded
                   std::mt19937/mt19937_64 outside sim::Rng. All randomness
                   must flow from the master seed through sim::Rng::fork.
  wall-clock       No wall-clock reads (std::time, chrono clocks, gettimeofday,
                   localtime, ...) inside src/. Simulated time comes from the
                   event queue; real time must never leak into results.
  unordered-iter   No iteration over std::unordered_map/unordered_set whose
                   loop body feeds formatted output or accumulates values
                   (iteration order is unspecified and varies across libcs,
                   silently reordering tables and float sums). Copy into a
                   vector and sort, or use an ordered container.
  raw-new-delete   No raw new/delete. Use std::unique_ptr, containers, or
                   values; `= delete` declarations are fine.
  using-namespace  No `using namespace std;` (any namespace at file scope in
                   a header): it leaks into every includer.
  include-guard    Every header starts with #pragma once.
  raw-thread       No raw std::thread/std::jthread/std::async/.detach()
                   outside src/util/parallel.*. Ad-hoc threads have no
                   ordering guarantees; util::ThreadPool's parallel_map
                   keeps results in input order so output stays
                   bit-identical at any thread count.
  metrics-name-literal  Registrations against the global metrics registry
                   (metrics::counter/gauge/histogram in src/ or bench/) must
                   pass the metric name as a string literal. The name set is
                   part of the observability contract (DESIGN.md §11): a
                   runtime-composed name cannot be grepped, breaks the
                   byte-stable snapshot ordering across runs, and defeats
                   the kind-conflict check at registration.
  raw-file-io      No direct std::ifstream/std::ofstream/std::fstream,
                   fopen/freopen, or bare ::open in src/ or tools/. All file
                   access routes through util::io (read_file /
                   write_file_atomic) so the chaos fault plan, EINTR retry
                   and fsync durability apply everywhere; a stream opened on
                   the side is invisible to every one of them. Tests, bench
                   and examples are harness code and exempt.
  heap-in-hot-loop No fresh std::string / stringstream / to_string / substr
                   inside loop bodies in src/sim/ and src/capture/ — the
                   per-event hot path. One allocation per event dominated
                   the seed profile (DESIGN.md §14): reuse a buffer owned
                   outside the loop, borrow a std::string_view, or intern
                   the id (util::Interner). Vetted cold sites annotate with
                   allow(heap-in-hot-loop).
  catch-all        No bare `catch (...)` and no empty catch bodies. The
                   typed-error layer (ytcdn::Error / util::Result) exists so
                   failures carry their code and provenance; a catch-all or
                   a swallowed exception erases both. Vetted sites (e.g. the
                   thread pool's exception trampoline) annotate with
                   allow(catch-all).

Diagnostics print as `file:line: [rule] message` and the tool exits nonzero
if any unsuppressed violation is found.

Suppressing a vetted exception:
  * inline:   append  `// ytcdn-lint: allow(<rule>)`  to the offending line;
  * baseline: add a line `<relpath>\t<rule>\t<normalized source line>` to
    tools/lint/baseline.txt (regenerate with --write-baseline). Baseline
    entries key on content, not line numbers, so they survive unrelated edits.

Usage:
  ytcdn_lint.py [--root DIR] [--baseline FILE] [--write-baseline] [paths...]
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass

DEFAULT_SCAN_DIRS = ("src", "bench", "tests", "tools", "examples")
SOURCE_EXTENSIONS = (".cpp", ".hpp")
# The linter's own negative-test fixtures are deliberately full of
# violations, and so are the clang-tidy plugin's seeded fixtures.
EXCLUDED_PARTS = ("tools/lint/testdata", "tools/lint/clang-plugin/fixtures")

# Files allowed to touch raw engines: the one blessed RNG wrapper.
RNG_ALLOWED_FILES = ("src/sim/random.hpp", "src/sim/random.cpp")

# Files allowed to spawn threads: the one blessed deterministic pool.
THREAD_ALLOWED_FILES = ("src/util/parallel.hpp", "src/util/parallel.cpp")

# The registry implementation itself forwards `name` parameters; everything
# else must register metrics under literal names.
METRICS_ALLOWED_FILES = ("src/util/metrics.hpp", "src/util/metrics.cpp")

# Files allowed to open files directly: the injectable I/O facade itself.
FILEIO_ALLOWED_FILES = ("src/util/io.hpp", "src/util/io.cpp")

SUPPRESS_RE = re.compile(r"ytcdn-lint:\s*allow\(\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")

ALL_RULES = (
    "rng-source",
    "wall-clock",
    "unordered-iter",
    "raw-new-delete",
    "using-namespace",
    "include-guard",
    "raw-thread",
    "raw-file-io",
    "catch-all",
    "metrics-name-literal",
    "heap-in-hot-loop",
    "blocking-call-in-service-loop",
)


@dataclass(frozen=True)
class Violation:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str
    content: str  # normalized source line, for baseline matching

    def key(self) -> tuple[str, str, str]:
        return (self.path, self.rule, self.content)


def normalize(line: str) -> str:
    return " ".join(line.split())


# Raw-string literal prefixes, longest first so u8R wins over R.
RAW_STRING_PREFIXES = ("u8R", "uR", "UR", "LR", "R")


def _raw_string_prefix(text: str, i: int) -> str | None:
    """The raw-string prefix ending at the `"` at position `i`, or None.
    The prefix must sit on an identifier boundary so `FOOBAR"x"` (a macro
    artifact) is not mistaken for `R"x"`."""
    for prefix in RAW_STRING_PREFIXES:
        start = i - len(prefix)
        if start < 0 or text[start:i] != prefix:
            continue
        if start > 0 and (text[start - 1].isalnum() or text[start - 1] == "_"):
            continue
        return prefix
    return None


def _is_digit_separator(text: str, i: int) -> bool:
    """True when the `'` at position `i` is a C++14 digit separator
    (1'000'000, 0xFF'FF) rather than the start of a char literal. The token
    to the left must begin with a digit — which also rules out the char
    literal prefixes (u8'a', L'a'), whose token starts with a letter."""
    j = i - 1
    while j >= 0 and (text[j].isalnum() or text[j] in "._"):
        j -= 1
    token = text[j + 1:i]
    return (bool(token) and token[0].isdigit()
            and i + 1 < len(text) and text[i + 1].isalnum())


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literal bodies, preserving line
    structure so reported line numbers stay correct."""
    out: list[str] = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"' and _raw_string_prefix(text, i) is not None:
                m = re.match(r'"([^()\s\\]{0,16})\(', text[i:])
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    mode = "raw"
                    out.append('"')
                    i += 1
                else:
                    mode = "string"
                    out.append('"')
                    i += 1
            elif c == '"':
                mode = "string"
                out.append('"')
                i += 1
            elif c == "'" and _is_digit_separator(text, i):
                # 1'000'000 — part of a numeric token, not a char literal.
                out.append("'")
                i += 1
            elif c == "'":
                mode = "char"
                out.append("'")
                i += 1
            else:
                out.append(c)
                i += 1
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "raw":
            if text.startswith(raw_delim, i):
                mode = "code"
                out.append('"')
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                mode = "code"
                out.append('"')
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif mode == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                mode = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
    return "".join(out)


# --- rule implementations ---------------------------------------------------

RNG_PATTERNS = (
    (re.compile(r"std\s*::\s*random_device"), "std::random_device is non-deterministic"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() bypasses sim::Rng"),
    (
        re.compile(r"std\s*::\s*mt19937(?:_64)?\s+\w+\s*(?:;|,|\)|=\s*\{?\s*\}?;)"
                   r"|std\s*::\s*mt19937(?:_64)?\s*(?:\(\s*\)|\{\s*\})"),
        "default-seeded std::mt19937 — derive a stream via sim::Rng::fork",
    ),
)

CLOCK_PATTERNS = (
    (re.compile(r"std\s*::\s*time\s*\("), "std::time reads the wall clock"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time(NULL) reads the wall clock"),
    (re.compile(r"\bgettimeofday\b|\bclock_gettime\b|\bftime\b"), "wall-clock syscall"),
    (
        re.compile(r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b"),
        "chrono clock read — simulated time comes from sim::EventQueue",
    ),
    (re.compile(r"\b(?:localtime|gmtime|strftime|ctime)\s*\("), "calendar-time call"),
)

THREAD_PATTERNS = (
    (
        re.compile(r"std\s*::\s*j?thread\b(?!\s*::\s*hardware_concurrency)"),
        "raw std::thread — dispatch through util::ThreadPool so results keep "
        "input order",
    ),
    (re.compile(r"std\s*::\s*async\s*[(<]"),
     "std::async schedules nondeterministically — use util::parallel_map"),
    (re.compile(r"\.\s*detach\s*\(\s*\)"),
     "detached threads outlive all ordering guarantees"),
)

FILEIO_PATTERNS = (
    (
        re.compile(r"std\s*::\s*[io]?fstream\b"),
        "direct file stream — route through util::io (read_file / "
        "write_file_atomic) so fault injection and fsync durability apply",
    ),
    (re.compile(r"(?<![\w:.])f(?:re)?open\s*\("),
     "fopen/freopen bypasses the util::io facade"),
    (re.compile(r"(?<![\w:.<])::\s*open\s*\("),
     "bare ::open bypasses the util::io facade"),
)

NEW_RE = re.compile(r"(?<![\w.])new\s+[A-Za-z_(:][\w:<>,\s*&]*")
PLACEMENT_NEW_RE = re.compile(r"(?<![\w.])new\s*\(")
DELETE_RE = re.compile(r"(?<![\w.])delete(?:\s*\[\s*\])?\s+[\w(*]")
EQ_DELETE_RE = re.compile(r"=\s*delete\b")

USING_NS_RE = re.compile(r"^\s*using\s+namespace\s+[\w:]+\s*;")

CATCH_RE = re.compile(r"\bcatch\s*\(\s*([^)]*)\s*\)")

# A registration call against the global registry. The scrubbed text blanks
# string contents but keeps the quotes, so the first non-whitespace character
# after the `(` tells literal from composed name. Matched on the whole file
# because the call often wraps after the paren.
METRICS_CALL_RE = re.compile(
    r"(?<![\w.])metrics\s*::\s*(?:counter|gauge|histogram)\s*\(\s*(\S)")

# The per-event hot path: everything the simulator and the packet-capture
# layer execute once per event/flow. Analyses and report rendering run once
# per artifact and may allocate freely.
HOT_PATH_DIRS = ("src/sim/", "src/capture/")

LOOP_HEADER_RE = re.compile(r"(?<![\w.])(?:for|while)\s*\(")
HOT_ALLOC_PATTERNS = (
    (
        # std::string declarations and temporaries; references, pointers and
        # std::string::npos-style static uses do not allocate, and
        # std::string_view never does ('string\b' cannot match inside it).
        re.compile(r"std\s*::\s*string\b(?!\s*::)\s*(?![&*])"),
        "fresh std::string per iteration",
    ),
    (re.compile(r"std\s*::\s*to_string\s*\("),
     "std::to_string allocates per call"),
    (re.compile(r"std\s*::\s*[io]?stringstream\b|std\s*::\s*ostrstream\b"),
     "stringstream allocates per construction"),
    (re.compile(r"\.\s*substr\s*\("),
     ".substr() copies into a fresh string"),
)

# The daemon's single supervision thread owes the control socket, the stop
# flag, and the fault injector a bounded response time. Every wait it takes
# must therefore carry a deadline and go through the injectable facade
# (util::io::poll_readable / UnixServerSocket::accept_ready); an unbounded
# sleep, join, or raw blocking syscall freezes all three at once.
SERVICE_LOOP_DIRS = ("src/service/",)
SERVICE_BLOCKING_PATTERNS = (
    (re.compile(r"std\s*::\s*this_thread\s*::\s*sleep_(?:for|until)\b"),
     "thread sleep in the service loop"),
    (re.compile(r"(?<![\w:.])(?:u|nano)?sleep\s*\("),
     "raw sleep syscall in the service loop"),
    (re.compile(r"\.\s*join\s*\(\s*\)"),
     "unbounded thread join in the service loop"),
    (re.compile(r"\.\s*wait(?:_for|_until)?\s*\("),
     "condition-variable wait in the service loop"),
    (re.compile(
        r"(?<![\w:.<])::\s*(?:accept4?|poll|ppoll|select|pselect|epoll_wait|"
        r"recv|recvfrom|recvmsg|read)\s*\("),
     "raw blocking syscall in the service loop"),
)

UNORDERED_DECL_RE = re.compile(
    r"(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
# A declaration introducing a named unordered container (variable or member):
#   std::unordered_map<K, V> name;   auto& name = <unordered expr>;  etc.
UNORDERED_NAME_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*?>\s*&?\s*(\w+)\s*[;={(),]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*(?:const\s+)?[\w:<>,&\s\[\]]+?:\s*([^)]+)\)")
SINK_RE = re.compile(r"<<|\bprintf\s*\(|\bfprintf\s*\(|std\s*::\s*format|"
                     r"\badd_row\s*\(|\+=")


def base_identifier(expr: str) -> str | None:
    """The identifier an iterated expression ultimately names:
    `tally` from `tally`, `cache_` from `this->cache_`, `items` from
    `obj.items`. Call expressions return None (we cannot see their type)."""
    expr = expr.strip()
    if expr.endswith(")"):  # function call result
        return None
    m = re.search(r"(\w+)\s*$", expr)
    return m.group(1) if m else None


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def resolve_include(inc: str, includer: str, known: set[str]) -> str | None:
    """Maps an #include "..." to a repo-relative scanned file, mirroring the
    build's include dirs (src/ and the includer's own directory)."""
    for candidate in ("src/" + inc,
                      os.path.dirname(includer) + "/" + inc if "/" in includer else inc,
                      inc):
        if candidate in known:
            return candidate
    return None


def collect_unordered_names(scrubbed_by_file: dict[str, str]) -> dict[str, set[str]]:
    """Per-file set of identifiers declared with an unordered container type,
    visible from that file: its own declarations plus those in the transitive
    closure of its project #includes (a member declared in foo.hpp is in scope
    for every file including foo.hpp)."""
    known = set(scrubbed_by_file)
    own: dict[str, set[str]] = {}
    includes: dict[str, set[str]] = {}
    for rel, text in scrubbed_by_file.items():
        own[rel] = {m.group(1) for m in UNORDERED_NAME_RE.finditer(text)}
        includes[rel] = set()
        for m in INCLUDE_RE.finditer(text):
            resolved = resolve_include(m.group(1), rel, known)
            if resolved is not None:
                includes[rel].add(resolved)

    closure_cache: dict[str, set[str]] = {}

    def closure(rel: str, stack: set[str]) -> set[str]:
        if rel in closure_cache:
            return closure_cache[rel]
        if rel in stack:  # include cycle — stop
            return set()
        stack.add(rel)
        names = set(own[rel])
        for dep in includes[rel]:
            names |= closure(dep, stack)
        stack.discard(rel)
        closure_cache[rel] = names
        return names

    return {rel: closure(rel, set()) for rel in scrubbed_by_file}


def body_of_statement(lines: list[str], start: int) -> tuple[str, int]:
    """The source of the statement/block that a `for (...)` on line `start`
    controls (brace-matched, capped at 60 lines). Returns (text, end_line)."""
    depth = 0
    seen_open = False
    collected: list[str] = []
    for i in range(start, min(start + 60, len(lines))):
        line = lines[i]
        collected.append(line)
        depth += line.count("{") - line.count("}")
        if "{" in line:
            seen_open = True
        if seen_open and depth <= 0:
            return "\n".join(collected), i
        if not seen_open and line.rstrip().endswith(";"):
            return "\n".join(collected), i
    return "\n".join(collected), min(start + 60, len(lines)) - 1


class Linter:
    def __init__(self, root: str):
        self.root = root
        self.violations: list[Violation] = []

    def add(self, path: str, line_no: int, rule: str, message: str, raw_line: str) -> None:
        self.violations.append(
            Violation(path, line_no, rule, message, normalize(raw_line)))

    def lint_file(self, rel: str, raw: str, scrubbed: str,
                  unordered_names: set[str]) -> None:
        raw_lines = raw.splitlines()
        lines = scrubbed.splitlines()
        suppressed: dict[int, set[str]] = {}
        for idx, line in enumerate(raw_lines):
            m = SUPPRESS_RE.search(line)
            if m:
                suppressed[idx] = {r.strip() for r in m.group(1).split(",")}

        is_header = rel.endswith(".hpp")
        in_src = rel.startswith("src/")

        def emit(idx: int, rule: str, message: str) -> None:
            if rule in suppressed.get(idx, ()):  # inline allow()
                return
            self.add(rel, idx + 1, rule, message, raw_lines[idx])

        # include-guard: headers must open with #pragma once.
        if is_header:
            has_pragma = any(line.strip() == "#pragma once" for line in lines[:15])
            if not has_pragma:
                emit(0, "include-guard", "header missing #pragma once")

        rng_allowed = rel in RNG_ALLOWED_FILES
        thread_allowed = rel in THREAD_ALLOWED_FILES
        fileio_scoped = (rel.startswith(("src/", "tools/"))
                         and rel not in FILEIO_ALLOWED_FILES)
        for idx, line in enumerate(lines):
            if not rng_allowed:
                for pat, msg in RNG_PATTERNS:
                    if pat.search(line):
                        emit(idx, "rng-source", msg)
            if not thread_allowed:
                for pat, msg in THREAD_PATTERNS:
                    if pat.search(line):
                        emit(idx, "raw-thread", msg)
            if in_src:
                for pat, msg in CLOCK_PATTERNS:
                    if pat.search(line):
                        emit(idx, "wall-clock", msg)
            if fileio_scoped:
                for pat, msg in FILEIO_PATTERNS:
                    if pat.search(line):
                        emit(idx, "raw-file-io", msg)
            if DELETE_RE.search(line) and not EQ_DELETE_RE.search(line):
                emit(idx, "raw-new-delete", "raw delete — use an owning type")
            elif NEW_RE.search(line) and not PLACEMENT_NEW_RE.search(line):
                emit(idx, "raw-new-delete",
                     "raw new — use std::make_unique or a container")
            if is_header and USING_NS_RE.search(line):
                emit(idx, "using-namespace",
                     "using-directive in a header leaks into every includer")

        # catch-all: bare `catch (...)` erases the error's type and code;
        # an empty catch body swallows the error entirely. Both defeat the
        # typed-error layer unless a vetted site annotates allow(catch-all).
        for idx, line in enumerate(lines):
            m = CATCH_RE.search(line)
            if not m:
                continue
            if "..." in m.group(1):
                emit(idx, "catch-all",
                     "bare catch (...) erases the error type — catch a "
                     "concrete exception (ytcdn::Error, std::exception)")
                continue
            # Brace-match the handler from the `catch` keyword onward so a
            # leading `}` (of the try block) does not end the scan early.
            handler_lines = [line[m.start():]] + lines[idx + 1:idx + 60]
            body, _ = body_of_statement(handler_lines, 0)
            first = body.find("{")
            last = body.rfind("}")
            if first != -1 and last > first and not body[first + 1:last].strip():
                emit(idx, "catch-all",
                     "empty catch body silently swallows the error — handle "
                     "it or let it propagate")

        # metrics-name-literal: global-registry registrations in src/ and
        # bench/ carry their name as a literal so the metric namespace is
        # statically enumerable.
        if (rel.startswith(("src/", "bench/"))
                and rel not in METRICS_ALLOWED_FILES):
            for m in METRICS_CALL_RE.finditer(scrubbed):
                if m.group(1) == '"':
                    continue
                idx = scrubbed.count("\n", 0, m.start())
                emit(idx, "metrics-name-literal",
                     "metric registered under a non-literal name — pass a "
                     'string literal ("layer.component.metric") so the name '
                     "set stays greppable and snapshot-stable")

        # heap-in-hot-loop: allocation inside a loop body on the per-event
        # hot path. The loop body is brace-matched from the header; nested
        # loops would re-scan inner lines, so findings dedupe on line index.
        if rel.startswith(HOT_PATH_DIRS):
            hot_hits: set[int] = set()
            for idx, line in enumerate(lines):
                if not LOOP_HEADER_RE.search(line):
                    continue
                body, _ = body_of_statement(lines, idx)
                for off, body_line in enumerate(body.splitlines()):
                    at = idx + off
                    if at in hot_hits:
                        continue
                    for pat, msg in HOT_ALLOC_PATTERNS:
                        m = pat.search(body_line)
                        if m:
                            # .substr on a std::string_view borrows; exempt
                            # when the view type is visible on the line.
                            if ("substr" in pat.pattern
                                    and "string_view" in body_line[:m.start()]):
                                continue
                            hot_hits.add(at)
                            emit(at, "heap-in-hot-loop",
                                 f"{msg} in a per-event loop — reuse a "
                                 "buffer owned outside the loop, borrow a "
                                 "std::string_view, or intern the id "
                                 "(util::Interner; DESIGN.md §14)")
                            break

        # blocking-call-in-service-loop: the daemon is single-threaded by
        # contract — any unbounded wait starves the control socket, the
        # SIGTERM stop flag, and fault injection simultaneously. All waits
        # in src/service/ must be deadline-bounded util::io calls.
        if rel.startswith(SERVICE_LOOP_DIRS):
            for idx, line in enumerate(lines):
                for pat, msg in SERVICE_BLOCKING_PATTERNS:
                    if pat.search(line):
                        emit(idx, "blocking-call-in-service-loop",
                             f"{msg} — the daemon must stay responsive to "
                             "the control socket and stop flag; wait with a "
                             "deadline via util::io::poll_readable or "
                             "UnixServerSocket::accept_ready instead")
                        break

        # unordered-iter: range-for over a known unordered container whose
        # body formats output or accumulates.
        for idx, line in enumerate(lines):
            m = RANGE_FOR_RE.search(line)
            if not m:
                continue
            name = base_identifier(m.group(1))
            if name is None or name not in unordered_names:
                continue
            body, _ = body_of_statement(lines, idx)
            # The range expression itself may contain a `:`-free sink lookalike;
            # only the controlled statement matters.
            body_after_header = body[body.find(")") + 1:] if ")" in body else body
            if SINK_RE.search(body_after_header):
                emit(idx, "unordered-iter",
                     f"iteration over unordered container '{name}' feeds "
                     "output/accumulation — copy to a vector and sort, or use "
                     "an ordered container")


# --- driver -----------------------------------------------------------------

def discover_files(root: str, paths: list[str]) -> list[str]:
    rels: list[str] = []
    roots = paths if paths else [os.path.join(root, d) for d in DEFAULT_SCAN_DIRS]
    for top in roots:
        if os.path.isfile(top):
            rels.append(os.path.relpath(top, root))
            continue
        for dirpath, _dirnames, filenames in os.walk(top):
            for fn in sorted(filenames):
                if fn.endswith(SOURCE_EXTENSIONS):
                    rels.append(os.path.relpath(os.path.join(dirpath, fn), root))
    rels = [r.replace(os.sep, "/") for r in rels]
    rels = [r for r in rels if not any(part in r for part in EXCLUDED_PARTS)]
    return sorted(set(rels))


def load_baseline(path: str) -> set[tuple[str, str, str]]:
    entries: set[tuple[str, str, str]] = set()
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t", 2)
            if len(parts) != 3:
                print(f"warning: malformed baseline line: {line!r}", file=sys.stderr)
                continue
            entries.add((parts[0], parts[1], normalize(parts[2])))
    return entries


def write_baseline(path: str, keys: set[tuple[str, str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("# ytcdn_lint baseline — vetted exceptions, one per line:\n")
        f.write("# <repo-relative path>\\t<rule>\\t<normalized source line>\n")
        f.write("# Regenerate with: tools/lint/ytcdn_lint.py --write-baseline\n")
        f.write("# Drop stale entries with: tools/lint/ytcdn_lint.py --prune-baseline\n")
        for key in sorted(keys):
            f.write("\t".join(key) + "\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        help="repository root (default: two levels above this script)")
    parser.add_argument("--baseline", default=None,
                        help="suppression file (default: <root>/tools/lint/baseline.txt)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline to cover all current violations")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="rewrite the baseline keeping only entries that "
                             "still match a current violation")
    parser.add_argument("--check-baseline", action="store_true",
                        help="fail (exit 1) if the baseline carries stale "
                             "entries no current violation matches")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*", help="files/dirs to lint (default: "
                        + ", ".join(DEFAULT_SCAN_DIRS) + ")")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    baseline_path = args.baseline or os.path.join(root, "tools", "lint", "baseline.txt")

    rels = discover_files(root, args.paths)
    if not rels:
        print("ytcdn_lint: no source files found", file=sys.stderr)
        return 2

    raw_by_file: dict[str, str] = {}
    scrubbed_by_file: dict[str, str] = {}
    for rel in rels:
        with open(os.path.join(root, rel), encoding="utf-8", errors="replace") as f:
            raw_by_file[rel] = f.read()
        scrubbed_by_file[rel] = strip_comments_and_strings(raw_by_file[rel])

    unordered_names = collect_unordered_names(scrubbed_by_file)

    linter = Linter(root)
    for rel in rels:
        linter.lint_file(rel, raw_by_file[rel], scrubbed_by_file[rel],
                         unordered_names[rel])

    if args.write_baseline:
        keys = set(v.key() for v in linter.violations)
        write_baseline(baseline_path, keys)
        print(f"ytcdn_lint: wrote {len(keys)} baseline entries to {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path)

    if args.prune_baseline or args.check_baseline:
        live = set(v.key() for v in linter.violations)
        stale = sorted(baseline - live)
        if args.prune_baseline:
            write_baseline(baseline_path, baseline & live)
            print(f"ytcdn_lint: pruned {len(stale)} stale of {len(baseline)} "
                  f"baseline entries in {baseline_path}")
            return 0
        if stale:
            for path, rule, content in stale:
                print(f"stale baseline entry: {path} [{rule}] {content!r}")
            print(f"ytcdn_lint: {len(stale)} stale baseline entr"
                  f"{'y' if len(stale) == 1 else 'ies'} — a suppressed "
                  "violation no longer exists; run --prune-baseline",
                  file=sys.stderr)
            return 1
        print(f"ytcdn_lint: baseline fresh — {len(baseline)} entries all "
              "match current violations")
        return 0
    fresh = [v for v in linter.violations if v.key() not in baseline]
    for v in fresh:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")
    suppressed_count = len(linter.violations) - len(fresh)
    if fresh:
        print(f"ytcdn_lint: {len(fresh)} violation(s) "
              f"({suppressed_count} baseline-suppressed) in {len(rels)} files",
              file=sys.stderr)
        return 1
    print(f"ytcdn_lint: clean — {len(rels)} files, "
          f"{suppressed_count} baseline-suppressed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
