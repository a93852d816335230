#!/usr/bin/env python3
"""The repository benchmark: builds ytcdn_perfbench from source and runs it.

One workload, the form a benchmark driver uses:

    python3 perfbench/run.py --workload scale_stream --seed 1 --seconds 20 --trace 0

Every workload in turn, with a summary table of the end-to-end metrics:

    python3 perfbench/run.py --all [--seed 1] [--seconds 20] [--trace 0|1]

The last line of a one-workload run is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics.
Layers a workload does not exercise report 0. The exit status is 0 only
when every correctness check passed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run must end within 180 s; the binary measures for --seconds plus its
# set-up, so this only stops a wedged run.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that leaves no result to print (build, usage, crash)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def output_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures a Release tree (a no-op once done), builds the driver and
    returns its path. The driver itself refuses to run unoptimized."""
    build_dir = output_dir() / "perfbench"
    generator = []
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"]
    run_build(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_build(["cmake", "--build", str(build_dir), "--target", "ytcdn_perfbench",
               "-j", jobs])
    return build_dir / "ytcdn_perfbench"


def run_build(cmd):
    # Build chatter goes to stderr: stdout carries only results.
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("build failed: " + " ".join(cmd))


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", "unknown") outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return "unknown", "unknown"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return git("rev-parse", "HEAD"), "1" if dirty else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def run_workload(binary, spec, workload, seed, seconds, trace, tiny=False):
    """Runs one workload; echoes its report and returns the contract result."""
    sha, dirty = git_state()
    out = output_dir()
    work_dir = out / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(work_dir), "--git-sha", sha, "--git-dirty", dirty]
    if trace:
        (out / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(out / "spans" / f"{workload}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s") from e
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("result "):
        sys.stdout.write(proc.stdout)
        raise BenchError(f"{workload} exited with status {proc.returncode} "
                         "and no result")
    for line in lines[:-1]:
        print(line)
    measured = json.loads(lines[-1][len("result "):])

    result = {key: measured[key] for key in ("correct", "attempted", "failed")}
    result["correct"] = result["correct"] and proc.returncode == 0
    result["metrics"] = {}
    section = "per_layer" if trace else "end_to_end"
    for metric in spec[section]:
        name, unit = metric["name"], metric["unit"]
        got = measured["metrics"].get(name)
        if got is None and section == "end_to_end":
            raise BenchError(f"{workload} did not measure {name}")
        if got is not None and got["unit"] != unit:
            raise BenchError(f"{workload} measured {name} in {got['unit']}, "
                             f"BENCHMARK.json says {unit}")
        result["metrics"][name] = {"value": got["value"] if got else 0, "unit": unit}
    failed_share = measured["metrics"]["failed_share"]["value"]
    return result, failed_share


def run_all(binary, spec, args):
    """Every workload in turn; prints a summary table of the end-to-end metrics."""
    rows = []
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload} ==", flush=True)
        result, failed_share = run_workload(binary, spec, workload, args.seed,
                                            args.seconds, 0, args.tiny)
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            rows.append((workload, name, metric["value"], metric["unit"]))
        rows.append((workload, "failed_share", failed_share, "ratio"))
        rows.append((workload, "correct", result["correct"], ""))
        if args.trace:
            run_workload(binary, spec, workload, args.seed, args.seconds, 1, args.tiny)
    print(f"\n{'workload':<14} {'metric':<20} {'value':>16}  unit")
    for workload, name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{workload:<14} {name:<20} {shown:>16}  {unit}")
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="test-sized inputs; numbers are not comparable")
    args = parser.parse_args()

    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
        binary = build()
        if args.all:
            return 0 if run_all(binary, spec, args) else 1
        result, _ = run_workload(binary, spec, args.workload, args.seed, args.seconds,
                                 args.trace, args.tiny)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
