#!/usr/bin/env bash
# soak.sh — run ytcdnd under a continuous injected-fault plan with live
# control mutations and one crash/restart, then audit the robustness
# invariants the service mode guarantees (DESIGN.md §15):
#
#   * the daemon survives p=0.01 faults on every facade op: it exits 0 and
#     the final manifest says "status shutdown",
#   * load shedding is never silent: every shed batch has a `shed file=`
#     manifest record, and the totals line matches them exactly,
#   * no fd leak: the open-descriptor count at the end of each daemon
#     lifetime is no higher than shortly after startup (plus slack for
#     in-flight control connections),
#   * service counters are monotone within a lifetime: successive `ctl
#     stats` samples never go backwards.
#
# Timeline (default 120 s): the first half runs daemon #1 with a feeder
# copying flow files into the spool and a mutator cycling control commands;
# at half-time the daemon is SIGKILLed and daemon #2 resumes the same run
# directory; at the end `ctl shutdown` quiesces it.
#
# Usage: soak.sh <path-to-ytcdn-binary> [duration-seconds]
#
# Exit 0 when every audit passes; non-zero (with diagnostics) otherwise.

set -euo pipefail

YTCDN=${1:?usage: soak.sh <path-to-ytcdn-binary> [duration-seconds]}
DURATION=${2:-120}
HALF=$((DURATION / 2))

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ytcdn_soak.XXXXXX")
FEEDER_PID=""
DAEMON_PID=""
cleanup() {
    [ -n "$FEEDER_PID" ] && kill "$FEEDER_PID" 2>/dev/null || true
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    wait 2>/dev/null || true
    # CI keeps the manifest for upload on failure; local runs stay tidy.
    if [ -n "${SOAK_KEEP_MANIFEST:-}" ]; then
        cp "$WORK/run/service_manifest.txt" "$SOAK_KEEP_MANIFEST" \
            2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

# Degradations are the point of this exercise; strict mode would turn them
# into failures. The fault plan rides on every facade op the daemon makes.
unset YTCDN_STRICT_ARTIFACTS
export YTCDN_IO_FAULTS="seed 20260808; eio p=0.01; enospc p=0.005 ops=write,fsync; slow-write p=0.01 slow-ms=1"

SPOOL="$WORK/spool"
RUN="$WORK/run"
SOCK="$WORK/ctl.sock"
SERVE=("$YTCDN" serve --spool "$SPOOL" --out "$RUN" --socket "$SOCK"
       --tick-ms 20 --backoff 0 --checkpoint-every 1 --queue 2 --batch 128)

echo "== generate the flow-file pool (no faults while seeding)"
YTCDN_IO_FAULTS="" "$YTCDN" study --scale 0.005 --seed 11 --no-table3 \
    --out "$WORK/gen" >/dev/null 2>&1
mkdir -p "$SPOOL"
POOL=()
while IFS= read -r f; do POOL+=("$f"); done \
    < <(find "$WORK/gen/logs" -name '*.yfl' | sort)
[ "${#POOL[@]}" -gt 0 ] || { echo "FAIL: generator produced no flow logs" >&2; exit 1; }
DCMAP=$(find "$WORK/gen/logs" -name '*.dcmap' | sort | head -n 1)
cp "$DCMAP" "$SPOOL/vantage.dcmap"

# Feeder: every second, stage the next pool file (atomically: dotfile copy,
# then rename) under a fresh name so the ledger sees it as new work.
feeder() {
    local n=0
    while :; do
        local src="${POOL[$((n % ${#POOL[@]}))]}"
        local dst
        dst=$(printf 'feed-%05d.yfl' "$n")
        cp "$src" "$SPOOL/.stage.tmp" && mv "$SPOOL/.stage.tmp" "$SPOOL/$dst"
        n=$((n + 1))
        sleep 1
    done
}
feeder &
FEEDER_PID=$!

ctl() { "$YTCDN" ctl "$SOCK" "$@"; }

fd_count() { ls "/proc/$1/fd" 2>/dev/null | wc -l; }

wait_for_socket() {
    for _ in $(seq 1 600); do
        [ -S "$SOCK" ] && return 0
        kill -0 "$DAEMON_PID" 2>/dev/null || return 1
        sleep 0.05
    done
    return 1
}

# One daemon lifetime: start, sample stats every 2 s (saved for the
# monotonicity audit) while cycling control mutations, record fd counts at
# the start and the end. $1 = lifetime tag, $2 = seconds, $3.. = extra args.
# The faults mutation re-installs the soak's own plan (already ';'-joined),
# so chaos stays on while a live mutation is exercised.
MUTATIONS=("faults $YTCDN_IO_FAULTS" "snapshot" "render" "ping")
run_lifetime() {
    local tag=$1 seconds=$2
    shift 2
    "${SERVE[@]}" "$@" >"$WORK/daemon_$tag.log" 2>&1 &
    DAEMON_PID=$!
    wait_for_socket || {
        echo "FAIL: daemon $tag never bound its control socket" >&2
        cat "$WORK/daemon_$tag.log" >&2
        return 1
    }
    sleep 1  # let startup fds (socket, spool scan) settle before baselining
    fd_count "$DAEMON_PID" >"$WORK/fd_${tag}_start"
    local deadline=$((SECONDS + seconds)) i=0
    while [ "$SECONDS" -lt "$deadline" ]; do
        # Individual commands may be dropped by an injected accept/read
        # fault — that is the soak working as intended; the audit only
        # needs the samples that did get through.
        ctl stats >"$WORK/stats_${tag}_$(printf '%04d' "$i")" 2>/dev/null || true
        ctl ${MUTATIONS[$((i % ${#MUTATIONS[@]}))]} >/dev/null 2>&1 || true
        i=$((i + 1))
        sleep 2
    done
    fd_count "$DAEMON_PID" >"$WORK/fd_${tag}_end"
}

echo "== lifetime 1: ${HALF}s of faulted ingest + control mutations"
run_lifetime life1 "$HALF"

echo "== crash: SIGKILL daemon #1 (no handler, no flush)"
kill -9 "$DAEMON_PID" 2>/dev/null || true
wait "$DAEMON_PID" 2>/dev/null || true

echo "== lifetime 2: resume the same run directory for ${HALF}s"
run_lifetime life2 "$HALF" --resume

echo "== quiesce via the control socket"
kill "$FEEDER_PID" 2>/dev/null || true
wait "$FEEDER_PID" 2>/dev/null || true
FEEDER_PID=""
# Shutdown itself can be hit by an injected fault; fall back to SIGTERM.
ctl shutdown >/dev/null 2>&1 || kill "$DAEMON_PID" 2>/dev/null || true
DEADLINE=$((SECONDS + 60))
while kill -0 "$DAEMON_PID" 2>/dev/null && [ "$SECONDS" -lt "$DEADLINE" ]; do
    sleep 0.2
done
if kill -0 "$DAEMON_PID" 2>/dev/null; then
    echo "FAIL: daemon did not exit within 60s of shutdown" >&2
    exit 1
fi
wait "$DAEMON_PID" 2>/dev/null && RC=0 || RC=$?
DAEMON_PID=""
if [ "$RC" -ne 0 ]; then
    echo "FAIL: daemon exited $RC under the fault plan" >&2
    tail -50 "$WORK/daemon_life2.log" >&2
    exit 1
fi

echo "== audit the manifest and samples"
MANIFEST="$RUN/service_manifest.txt"
python3 - "$WORK" "$MANIFEST" <<'PYEOF'
import glob, os, re, sys

work, manifest_path = sys.argv[1], sys.argv[2]
failures = []


def check(cond, what):
    print(("  ok: " if cond else "  FAIL: ") + what)
    if not cond:
        failures.append(what)


manifest = open(manifest_path, encoding="utf-8").read()
check("status shutdown" in manifest, "manifest records a clean shutdown")
check("file " in manifest, "daemon ingested at least one spool file")

# Shedding is never silent: the totals line, the per-file ledger, and the
# per-batch shed records must all agree.
shed_lines = len(re.findall(r"^shed file=", manifest, re.M))
ledger_shed = sum(int(m) for m in re.findall(r"^file .* shed=(\d+) ", manifest, re.M))
totals = re.search(r"^shed_batches_total (\d+)$", manifest, re.M)
check(totals is not None, "manifest has a shed_batches_total line")
total = int(totals.group(1)) if totals else -1
check(total == shed_lines,
      f"every shed batch has a manifest record ({shed_lines} records, total {total})")
check(total == ledger_shed,
      f"per-file ledger shed counts match the total ({ledger_shed} vs {total})")

# fd leak: end-of-lifetime count within slack of the settled baseline.
SLACK = 8  # in-flight control accepts + /proc readdir jitter
for tag in ("life1", "life2"):
    start = int(open(os.path.join(work, f"fd_{tag}_start")).read())
    end = int(open(os.path.join(work, f"fd_{tag}_end")).read())
    check(end <= start + SLACK,
          f"{tag}: no fd leak (start {start}, end {end}, slack {SLACK})")

# Counter monotonicity within each lifetime (counters reset across the
# restart by design — they are process-local).
COUNTERS = ("service.files_ingested", "service.records_ingested",
            "service.files_quarantined", "service.batches_shed",
            "service.records_shed", "service.control_commands",
            "service.checkpoints_written", "service.ticks")
for tag in ("life1", "life2"):
    samples = sorted(glob.glob(os.path.join(work, f"stats_{tag}_*")))
    parsed = []
    for path in samples:
        text = open(path, encoding="utf-8").read()
        if not text.startswith("ok"):
            continue  # sample lost to an injected fault
        values = {}
        for name in COUNTERS:
            m = re.search(rf"^counter {re.escape(name)} (\d+)$", text, re.M)
            if m:
                values[name] = int(m.group(1))
        if values:
            parsed.append((os.path.basename(path), values))
    check(len(parsed) >= 2, f"{tag}: at least two stats samples got through "
          f"({len(parsed)} of {len(samples)})")
    regressions = []
    for (prev_name, prev), (cur_name, cur) in zip(parsed, parsed[1:]):
        for name in COUNTERS:
            if name in prev and name in cur and cur[name] < prev[name]:
                regressions.append(f"{name}: {prev[name]} -> {cur[name]} "
                                   f"({prev_name} -> {cur_name})")
    check(not regressions,
          f"{tag}: counters are monotone" +
          ("" if not regressions else " [" + "; ".join(regressions) + "]"))

if failures:
    print(f"\n{len(failures)} audit(s) failed", file=sys.stderr)
    sys.exit(1)
print("\nall soak audits passed")
PYEOF

echo "soak complete"
