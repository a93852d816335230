#!/usr/bin/env python3
"""Golden tests for the ytcdn CLI's exit-code taxonomy (ctest: cli_exit_codes).

The contract (src/util/error.hpp, exit_code_for): 0 success, 1 internal,
2 usage, 3 I/O, 4 corrupt input, 5 parse failure. Front-end scripts and the
CI corrupt-fixture step branch on these, so they are pinned here end to end
against the real binary — every case uses a command that fails before any
simulation starts, keeping the whole suite sub-second.

Usage: cli_exit_codes.py <path-to-ytcdn-binary> <corpus-dir> [trace-dump-binary]
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

failures: list[str] = []


def run(binary: str, args: list[str], expect: int, what: str) -> None:
    proc = subprocess.run([binary, *args], capture_output=True, text=True,
                          errors="replace", check=False, timeout=120)
    if proc.returncode == expect:
        print(f"  ok: {what} -> {expect}")
    else:
        failures.append(what)
        print(f"  FAIL: {what}: expected exit {expect}, got {proc.returncode}\n"
              f"        stderr: {proc.stderr.strip()[:200]}")


def main() -> int:
    if len(sys.argv) not in (3, 4):
        print("usage: cli_exit_codes.py <ytcdn-binary> <corpus-dir> "
              "[trace-dump-binary]")
        return 2
    binary, corpus = sys.argv[1], sys.argv[2]
    trace_dump = sys.argv[3] if len(sys.argv) == 4 else None

    with tempfile.TemporaryDirectory(prefix="ytcdn_cli_exit_") as tmp:
        bad_schedule = os.path.join(tmp, "bad.sched")
        with open(bad_schedule, "w", encoding="utf-8") as f:
            f.write("@0 dc-down frankfurt\n@nonsense warp target\n")
        bad_tsv = os.path.join(tmp, "bad.tsv")
        with open(bad_tsv, "w", encoding="utf-8") as f:
            f.write("this is\tnot a\tflow log\n")
        missing = os.path.join(tmp, "does_not_exist")
        # Every study case fails on its flags, before the run directory is
        # made or the week simulated.
        study = ["study", "--out", os.path.join(tmp, "x")]

        print("usage errors (exit 2)")
        run(binary, [], 2, "no command")
        run(binary, ["frobnicate"], 2, "unknown command")
        run(binary, ["run"], 2, "retired command run")
        run(binary, ["tables"], 2, "retired command tables")
        run(binary, [*study, "--scale", "-1"], 2, "non-positive --scale")

        print("I/O errors (exit 3)")
        run(binary, [*study, "--faults", missing + ".sched"], 3,
            "missing --faults file")
        run(binary, ["summary", missing + ".yfl"], 3, "unreadable binary log")
        run(binary, ["summary", missing + ".tsv"], 3, "unreadable TSV log")

        print("corrupt input (exit 4)")
        run(binary, ["summary", os.path.join(corpus, "bad_magic.yfl")], 4,
            "binary log with bad magic")
        run(binary, ["summary", os.path.join(corpus, "truncated_header.yfl")], 4,
            "truncated binary log header")
        run(binary, ["summary", os.path.join(corpus, "v2_count_overflow.yfl")], 4,
            "binary log with hostile count field")
        run(binary, ["convert", os.path.join(corpus, "v2_bad_itag.yfl"),
                     os.path.join(tmp, "out.tsv")], 4,
            "well-framed log with an invalid record")

        print("parse errors (exit 5)")
        run(binary, [*study, "--faults", bad_schedule], 5,
            "malformed fault schedule")
        run(binary, ["summary", bad_tsv], 5, "malformed TSV flow log")

        if os.path.exists(os.path.join(tmp, "x")):
            failures.append("study flag errors made the run directory")
            print("  FAIL: a study flag error made its run directory")
        else:
            print("  ok: every study case failed before making its run directory")

        if trace_dump:
            print("trace_dump (same taxonomy)")
            run(trace_dump, [os.path.join(corpus, "trace_valid.ytr")], 0,
                "trace_dump on a valid trace")
            run(trace_dump, [], 2, "trace_dump with no arguments")
            run(trace_dump, ["--format", "bogus",
                             os.path.join(corpus, "trace_valid.ytr")], 2,
                "trace_dump with a bad --format")
            run(trace_dump, ["--frobnicate", "x",
                             os.path.join(corpus, "trace_valid.ytr")], 2,
                "trace_dump with an unknown option")
            run(trace_dump, [missing + ".ytr"], 3,
                "trace_dump on a missing file")
            # Real corruption (bad magic, flipped bits, absurd counts) is
            # exit 4; a *torn tail* — a valid prefix a crashed writer left
            # behind — salvages to a warned partial dump with exit 6.
            for fixture in ("trace_bad_magic.ytr", "trace_bad_crc.ytr",
                            "trace_count_overflow.ytr",
                            "trace_bad_string_ref.ytr"):
                run(trace_dump, [os.path.join(corpus, fixture)], 4,
                    f"trace_dump on {fixture}")
            run(trace_dump, [os.path.join(corpus, "trace_truncated.ytr")], 6,
                "trace_dump salvages a tail torn mid-block")
            with open(os.path.join(corpus, "trace_valid.ytr"), "rb") as f:
                valid = f.read()
            torn_trailer = os.path.join(tmp, "torn_trailer.ytr")
            with open(torn_trailer, "wb") as f:
                f.write(valid[:-10])  # every block intact, trailer torn
            run(trace_dump, [torn_trailer], 6,
                "trace_dump salvages a tail torn mid-trailer")
            proc = subprocess.run(
                [trace_dump, torn_trailer], capture_output=True, text=True,
                errors="replace", check=False, timeout=120)
            if ("torn" in proc.stderr and
                    "6 events" in proc.stdout):
                print("  ok: torn-trailer salvage warns and dumps all events")
            else:
                failures.append("torn-trailer salvage output")
                print("  FAIL: torn-trailer salvage output\n"
                      f"        stdout: {proc.stdout.strip()[:200]}\n"
                      f"        stderr: {proc.stderr.strip()[:200]}")

    if failures:
        print(f"\n{len(failures)} case(s) failed")
        return 1
    print("\nall exit-code cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
