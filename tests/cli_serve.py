#!/usr/bin/env python3
"""End-to-end tests for ytcdnd, the crash-safe service mode (ctest: cli_serve).

The robustness contract pinned here, against the real binary:

  * SIGTERM mid-ingest quiesces: the daemon drains, flushes the service
    checkpoint + manifest ("status shutdown") and exits 0,
  * kill -9 mid-ingest loses nothing durable: `ytcdn serve --resume --once`
    replays the spool and converges to aggregates byte-identical to an
    uninterrupted one-shot run,
  * a `--once` pass never waits a tick: `--tick-ms` paces only an idle
    daemon, and SIGTERM ends an idle daemon's long tick promptly, with and
    without a control socket,
  * a `ytcdn study` run directory's logs/ is a spool: `ytcdn summary`
    and `ytcdn sessions` read its YFL2 logs, and the daemon's Table I
    flows, servers and clients equal the study's own table1.txt, row for row,
  * the Section VII row of the map's own stream names the preferred data
    center, and the shares, that `ytcdn analyze` computes over the same log,
  * the control socket answers ping / render / faults / shutdown, rejects
    the retired what-if verbs (`drain`) as unknown commands, and every
    accepted mutation is recorded as a `control` line in the manifest.

Usage: cli_serve.py <path-to-ytcdn-binary>
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

failures: list[str] = []


def check(cond: bool, what: str, detail: str = "") -> None:
    if cond:
        print(f"  ok: {what}")
    else:
        failures.append(what)
        print(f"  FAIL: {what}" + (f"\n        {detail}" if detail else ""))


def read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError:
        return ""


def wait_for(predicate, timeout_s: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.05)
    return False


SERVE = ["serve", "--tick-ms", "10", "--backoff", "0", "--checkpoint-every", "1"]


def start_daemon(binary: str, spool: str, out: str,
                 extra: list[str] | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        [binary, *SERVE, "--spool", spool, "--out", out, *(extra or [])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        errors="replace")


def split_row(line: str) -> list[str]:
    """Columns of an AsciiTable row (padded by two or more spaces; a cell
    such as a city name may itself contain single spaces)."""
    return re.split(r"\s{2,}", line.strip())


def section_vii_row(aggregates: str, stream: str) -> list[str]:
    """The Section VII row of `stream` in a rendered aggregates.txt."""
    section = aggregates.split("== Section VII", 1)
    for line in (section[1] if len(section) == 2 else "").splitlines():
        cells = split_row(line)
        if cells and cells[0] == stream:
            return cells
    return []


def table_rows(text: str, key_columns: list[str]) -> dict[str, list[str]]:
    """The named columns of every row of an AsciiTable, keyed by its first
    cell."""
    lines = [line for line in text.splitlines()
             if line.strip() and not line.startswith("-")]
    if not lines:
        return {}
    header = split_row(lines[0])
    index = [header.index(c) for c in key_columns if c in header]
    if len(index) != len(key_columns):
        return {}
    rows = {}
    for line in lines[1:]:
        cells = split_row(line)
        if len(cells) == len(header):
            rows[cells[0]] = [cells[i] for i in index]
    return rows


def make_spool(binary: str, tmp: str, name: str) -> str:
    """Runs a tiny study and lays its flow logs out as a spool."""
    gen = os.path.join(tmp, "gen", "logs")
    if not os.path.isdir(gen):
        subprocess.run(
            [binary, "study", "--scale", "0.005", "--seed", "7", "--no-table3",
             "--out", os.path.dirname(gen)],
            capture_output=True, text=True, errors="replace", check=True,
            timeout=300)
    spool = os.path.join(tmp, name)
    os.makedirs(spool)
    logs = sorted(f for f in os.listdir(gen) if f.endswith(".yfl"))
    maps = sorted(f for f in os.listdir(gen) if f.endswith(".dcmap"))
    assert logs and maps, f"ytcdn study produced no spoolable logs in {gen}"
    for i, log in enumerate(logs):
        stem = os.path.splitext(log)[0]
        shutil.copy(os.path.join(gen, log),
                    os.path.join(spool, f"{stem}-{i + 1:04d}.yfl"))
    shutil.copy(os.path.join(gen, maps[0]), os.path.join(spool, "vantage.dcmap"))
    return spool


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: cli_serve.py <ytcdn-binary>")
        return 2
    binary = sys.argv[1]

    with tempfile.TemporaryDirectory(prefix="ytcdn_serve_") as tmp:
        # Reference: one uninterrupted --once pass over the full spool.
        print("reference one-shot ingest")
        spool_ref = make_spool(binary, tmp, "spool_ref")
        out_ref = os.path.join(tmp, "run_ref")
        proc = subprocess.run(
            [binary, *SERVE, "--spool", spool_ref, "--out", out_ref, "--once"],
            capture_output=True, text=True, errors="replace", check=False,
            timeout=300)
        check(proc.returncode == 0, "one-shot serve exits 0",
              proc.stderr.strip()[:300])
        reference = read(os.path.join(out_ref, "aggregates.txt"))
        check(bool(reference), "one-shot serve renders aggregates.txt")
        manifest = read(os.path.join(out_ref, "service_manifest.txt"))
        check("status shutdown" in manifest,
              "one-shot manifest records a clean shutdown")

        # --tick-ms paces only an idle daemon: a --once pass has work in
        # every round but its last, which ends it, so it never waits a tick.
        # A pass that waited even one 10-minute tick would hit the timeout.
        print("one-shot ingest never waits a tick")
        out_slow = os.path.join(tmp, "run_slow_tick")
        try:
            proc = subprocess.run(
                [binary, "serve", "--tick-ms", "600000", "--backoff", "0",
                 "--checkpoint-every", "1", "--spool", spool_ref, "--out",
                 out_slow, "--once"],
                capture_output=True, text=True, errors="replace", check=False,
                timeout=60)
            finished = proc.returncode == 0
        except subprocess.TimeoutExpired:
            finished = False
        check(finished, "serve --once --tick-ms 600000 exits 0 within 60 s")
        check(read(os.path.join(out_slow, "aggregates.txt")) == reference,
              "its aggregates equal the reference run's")

        # The study's logs are YFL2 that every log reader takes, and the
        # daemon's Table I is the study's own, row for row.
        gen = os.path.join(tmp, "gen", "logs")
        summary = subprocess.run(
            [binary, "summary", *sorted(
                os.path.join(gen, f) for f in os.listdir(gen) if f.endswith(".yfl"))],
            capture_output=True, text=True, errors="replace", check=False,
            timeout=300)
        check(summary.returncode == 0, "ytcdn summary gen/logs/*.yfl exits 0",
              summary.stderr.strip()[:300])
        # `ytcdn sessions` over the same logs: the last CDF row is the
        # open-ended bucket, sessions of 10 or more flows.
        sessions = subprocess.run(
            [binary, "sessions", os.path.join(gen, sorted(
                f for f in os.listdir(gen) if f.endswith(".yfl"))[0])],
            capture_output=True, text=True, errors="replace", check=False,
            timeout=300)
        rows = sessions.stdout.splitlines()
        check(sessions.returncode == 0 and len(rows) == 11
              and rows[9].startswith(" 9 flows: CDF ")
              and rows[10].startswith("10+ flows: CDF "),
              "ytcdn sessions labels its last CDF row '10+ flows'",
              sessions.stdout[-200:])
        study_t1 = table_rows(
            read(os.path.join(tmp, "gen", "artifacts", "table1.txt")),
            ["Flows", "#Servers", "#Clients"])
        serve_t1 = table_rows(
            reference.split("== Table I", 1)[-1].split("\n\n", 1)[0]
            .split("\n", 1)[-1], ["flows", "servers", "clients"])
        check(bool(study_t1) and study_t1 == serve_t1,
              "serve Table I flows/servers/clients equal the study's table1.txt",
              f"study {study_t1} serve {serve_t1}")

        # The map's own stream: the daemon's Section VII numbers are the
        # offline analysis's, by bytes, over that stream's log.
        map_stream = os.path.splitext(
            sorted(f for f in os.listdir(gen) if f.endswith(".dcmap"))[0])[0]
        analyze = subprocess.run(
            [binary, "analyze", os.path.join(gen, f"{map_stream}.yfl"),
             os.path.join(gen, f"{map_stream}.dcmap")],
            capture_output=True, text=True, errors="replace", check=False,
            timeout=300)
        check(analyze.returncode == 0, f"ytcdn analyze {map_stream} exits 0",
              analyze.stderr.strip()[:300])
        offline = dict(split_row(line) for line in analyze.stdout.splitlines()
                       if len(split_row(line)) == 2)
        row = section_vii_row(reference, map_stream)
        check(len(row) == 7, f"aggregates.txt has a Section VII row for {map_stream}",
              repr(row))
        if len(row) == 7:
            _, preferred, _, _, _, byte_share, np_flow_share = row
            check(preferred == offline.get("preferred DC"),
                  f"{map_stream}: preferred DC {preferred} matches ytcdn analyze",
                  repr(offline.get("preferred DC")))
            check(byte_share == offline.get("preferred byte share %"),
                  f"{map_stream}: preferred byte share {byte_share}% matches",
                  repr(offline.get("preferred byte share %")))
            check(np_flow_share == offline.get("non-preferred flow share %"),
                  f"{map_stream}: non-preferred flow share {np_flow_share}% "
                  "matches", repr(offline.get("non-preferred flow share %")))

        # An idle daemon on a 10-minute tick honours SIGTERM within the
        # tick's 100 ms stop-check slice, not when the tick ends: exit 0 and
        # aggregates.txt written, on the plain-sleep path and on the control
        # socket's poll path.
        print("SIGTERM ends an idle tick")
        spool_idle = os.path.join(tmp, "spool_idle")
        os.makedirs(spool_idle)
        for label, extra in (("without --socket", []),
                             ("with --socket",
                              ["--socket", os.path.join(tmp, "idle.sock")])):
            out_idle = os.path.join(tmp, "run_idle" + str(len(extra)))
            idle = subprocess.Popen(
                [binary, "serve", "--tick-ms", "600000", "--spool", spool_idle,
                 "--out", out_idle, *extra],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                errors="replace")
            time.sleep(1.0)
            idle.send_signal(signal.SIGTERM)
            try:
                _, stderr = idle.communicate(timeout=30)
                stopped = idle.returncode == 0
            except subprocess.TimeoutExpired:
                idle.kill()
                _, stderr = idle.communicate()
                stopped = False
            check(stopped, f"idle serve {label} exits 0 on SIGTERM within 30 s",
                  (stderr or "").strip()[:300])
            check(bool(read(os.path.join(out_idle, "aggregates.txt"))),
                  f"idle serve {label} writes aggregates.txt")

        # SIGTERM mid-ingest: graceful quiesce, checkpoint flushed, exit 0.
        print("SIGTERM quiesce")
        spool_term = make_spool(binary, tmp, "spool_term")
        out_term = os.path.join(tmp, "run_term")
        daemon = start_daemon(binary, spool_term, out_term)
        manifest_path = os.path.join(out_term, "service_manifest.txt")
        check(wait_for(lambda: "file " in read(manifest_path)),
              "daemon starts ingesting")
        daemon.send_signal(signal.SIGTERM)
        try:
            stdout, stderr = daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            stdout, stderr = daemon.communicate()
        check(daemon.returncode == 0, "SIGTERM exits 0",
              (stderr or "").strip()[:300])
        check("status shutdown" in read(manifest_path),
              "post-SIGTERM manifest says status shutdown")
        check(os.path.exists(
            os.path.join(out_term, "checkpoints", "service.yck")),
            "post-SIGTERM service checkpoint exists")

        # kill -9 mid-ingest, then --resume --once: byte-identical aggregates.
        print("kill -9 + resume")
        spool_kill = make_spool(binary, tmp, "spool_kill")
        out_kill = os.path.join(tmp, "run_kill")
        daemon = start_daemon(binary, spool_kill, out_kill)
        kill_manifest = os.path.join(out_kill, "service_manifest.txt")
        wait_for(lambda: "file " in read(kill_manifest), timeout_s=15.0)
        daemon.kill()  # SIGKILL: no handler runs, no flush
        daemon.communicate()
        proc = subprocess.run(
            [binary, *SERVE, "--spool", spool_kill, "--out", out_kill,
             "--resume", "--once"],
            capture_output=True, text=True, errors="replace", check=False,
            timeout=300)
        check(proc.returncode == 0, "resume after kill -9 exits 0",
              proc.stderr.strip()[:300])
        resumed = read(os.path.join(out_kill, "aggregates.txt"))
        check(resumed == reference and bool(reference),
              "resumed aggregates byte-identical to the uninterrupted run")

        # Control socket: ping / render / faults / shutdown; mutations land in
        # the manifest, retired verbs are unknown commands.
        print("control socket")
        spool_ctl = make_spool(binary, tmp, "spool_ctl")
        out_ctl = os.path.join(tmp, "run_ctl")
        sock = os.path.join(tmp, "ctl.sock")
        daemon = start_daemon(binary, spool_ctl, out_ctl, ["--socket", sock])
        check(wait_for(lambda: os.path.exists(sock)),
              "daemon binds the control socket")

        def ctl(*words: str) -> subprocess.CompletedProcess:
            return subprocess.run(
                [binary, "ctl", sock, *words], capture_output=True, text=True,
                errors="replace", check=False, timeout=60)

        pong = ctl("ping")
        check(pong.returncode == 0 and pong.stdout.startswith("ok pong"),
              "ctl ping answers ok pong", pong.stdout[:100])
        render = ctl("render")
        check(render.returncode == 0 and "Table I (incremental)" in render.stdout,
              "ctl render returns the incremental tables")
        stats = ctl("stats")
        check(stats.returncode == 0 and
              "service.files_ingested" in stats.stdout,
              "ctl stats exposes the service metrics")
        drained = ctl("drain", "Frankfurt")
        check(drained.returncode == 1 and drained.stdout.startswith("err"),
              "ctl drain (a retired what-if verb) is an unknown command",
              drained.stdout[:100])
        cleared = ctl("faults", "clear")
        check(cleared.returncode == 0 and cleared.stdout.startswith("ok"),
              "ctl faults clear accepted", cleared.stdout[:100])
        bogus = ctl("levitate")
        check(bogus.returncode == 1 and bogus.stdout.startswith("err"),
              "ctl rejects an unknown command with err")
        down = ctl("shutdown")
        check(down.returncode == 0, "ctl shutdown accepted")
        try:
            _, stderr = daemon.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.kill()
            _, stderr = daemon.communicate()
        check(daemon.returncode == 0, "daemon exits 0 after ctl shutdown",
              (stderr or "").strip()[:300])
        ctl_manifest = read(os.path.join(out_ctl, "service_manifest.txt"))
        check("control faults clear" in ctl_manifest,
              "manifest records the faults mutation")
        check("control drain" not in ctl_manifest,
              "manifest records no rejected command")
        check(not os.path.exists(sock), "socket unlinked on shutdown")

    if failures:
        print(f"\n{len(failures)} case(s) failed")
        return 1
    print("\nall service cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
