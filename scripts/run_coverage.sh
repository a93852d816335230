#!/usr/bin/env bash
# Line-coverage gate: instrumented build (-DYTCDN_COVERAGE=ON), full test
# suite, then gcov over every object file and an aggregation that enforces
# the repo's floors:
#
#   src/ overall                  >= 70% of executable lines
#   analysis/report_folds+session >= 95%  (the report's one fold set and the
#                                          only session grouper)
#   analysis/streaming            >= 95%  (the only definition of the §VII
#   analysis/incremental          >= 95%   tallies, Pearson correlation
#                                          included, and of Table I's counts)
#   capture/binary_log            >= 90%  (the only YFL2 encoder and decoder)
#   sim/tracer                    >= 90%  (the only YTR1 encoder and decoder)
#   study/checkpoint              >= 90%  (the only YCK1 frame and stage codecs)
#   study/supervisor              >= 90%  (the staged study: where the week
#                                          lives, retries, degradation)
#   study/trace_driver            >= 85%  (the one driver: its three stages
#                                          and their hand-offs)
#   service/aggregates + control  >= 90%  (ytcdnd's state codec and grammar)
#   util/parallel                 >= 90%  (the only pool, fan-out, ordered
#                                          pipeline, lanes and block channel)
#   net/rtt_model + pinger        >= 95%  (the path/access split of the base
#                                          RTT and the per-ping base that the
#                                          flow-RTT and ping memos rest on)
#   analysis/as_analysis +        >= 95%  (Table II's once-per-server AS
#   study/dc_map_builder                   groups and Table III's
#                                          once-per-result city snap)
#
# Only gcc + gcov + python3 are required — no gcovr, no pip. gcov's
# --json-format output (one .gcov.json.gz per source) is aggregated by the
# embedded python below.
#
# Usage: scripts/run_coverage.sh [extra cmake args...]
#   BUILD_DIR=build-coverage   override the build directory
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-coverage}
JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Debug -DYTCDN_COVERAGE=ON "$@"
cmake --build "$BUILD_DIR" -j"$JOBS"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# gcov writes its .gcov.json.gz reports into the working directory; keep
# them out of the repo root. Paths must be absolute because the subshell
# below runs from inside the report directory.
BUILD_ABS=$(cd "$BUILD_DIR" && pwd)
GCOV_DIR="$BUILD_ABS/gcov-report"
rm -rf "$GCOV_DIR"
mkdir -p "$GCOV_DIR"
find "$BUILD_ABS/src" -name '*.gcda' -print0 |
  (cd "$GCOV_DIR" && xargs -0 gcov --json-format \
     >/dev/null 2>&1 || true)

python3 - "$GCOV_DIR" <<'EOF'
import glob
import gzip
import json
import os
import sys

report_dir = sys.argv[1]

# file -> {line number -> hit?}; merged across every test binary that
# compiled the file, so a line counts as covered if any test executed it.
lines: dict[str, dict[int, bool]] = {}
for path in glob.glob(os.path.join(report_dir, "*.gcov.json.gz")):
    with gzip.open(path, "rt", encoding="utf-8") as f:
        report = json.load(f)
    for entry in report.get("files", []):
        name = entry["file"]
        if "/src/" in name:
            name = "src/" + name.split("/src/", 1)[1]
        if not name.startswith("src/") or not name.endswith(".cpp"):
            continue
        per_file = lines.setdefault(name, {})
        for line in entry.get("lines", []):
            n = line["line_number"]
            per_file[n] = per_file.get(n, False) or line["count"] > 0

if not lines:
    sys.exit("run_coverage.sh: no gcov reports found — did the build "
             "use -DYTCDN_COVERAGE=ON?")

def coverage(paths):
    total = hit = 0
    for name, per_file in lines.items():
        if not any(name.startswith(p) for p in paths):
            continue
        total += len(per_file)
        hit += sum(per_file.values())
    return hit, total, (100.0 * hit / total if total else 0.0)

floors = [
    ("src/ overall", ["src/"], 70.0),
    ("report folds + session", ["src/analysis/report_folds", "src/analysis/session"],
     95.0),
    ("streaming", ["src/analysis/streaming"], 95.0),
    ("incremental", ["src/analysis/incremental"], 95.0),
    ("binary_log", ["src/capture/binary_log"], 90.0),
    ("tracer", ["src/sim/tracer"], 90.0),
    ("checkpoint", ["src/study/checkpoint"], 90.0),
    ("supervisor", ["src/study/supervisor"], 90.0),
    ("trace_driver", ["src/study/trace_driver"], 85.0),
    ("service", ["src/service/aggregates", "src/service/control"], 90.0),
    ("parallel", ["src/util/parallel"], 90.0),
    ("rtt_model + pinger", ["src/net/rtt_model", "src/net/pinger"], 95.0),
    ("as_analysis + dc_map", ["src/analysis/as_analysis", "src/study/dc_map_builder"],
     95.0),
]

failed = False
print(f"{'scope':<24} {'covered':>9} {'lines':>7} {'pct':>7}  floor")
for label, paths, floor in floors:
    hit, total, pct = coverage(paths)
    verdict = "ok" if pct >= floor and total > 0 else "FAIL"
    failed |= verdict == "FAIL"
    print(f"{label:<24} {hit:>9} {total:>7} {pct:>6.1f}%  >={floor:.0f}% {verdict}")

worst = sorted(((coverage([n])[2], n) for n in lines), key=lambda t: t[0])
print("\nleast-covered files:")
for pct, name in worst[:10]:
    print(f"  {pct:5.1f}%  {name}")

sys.exit(1 if failed else 0)
EOF

echo "run_coverage.sh: all coverage floors met"
