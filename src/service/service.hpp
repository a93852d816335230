#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "service/aggregates.hpp"
#include "service/ingest_queue.hpp"
#include "study/supervisor.hpp"
#include "util/error.hpp"

namespace ytcdn::service {

/// ytcdnd — the crash-safe long-running service mode (DESIGN.md §15).
///
/// One single-threaded supervision loop: each round serves any pending
/// control connections, scans the spool for new flow logs and ingests them
/// through supervised per-file stages (parse -> admit/shed -> aggregate ->
/// checkpoint). Only a round after an empty scan first waits on the control
/// socket for `tick_ms` (a bounded poll — the loop never blocks without a
/// deadline); while the spool has work the rounds run back to back.
/// Parsing runs ahead on the deterministic ThreadPool, at most
/// `pipeline_window()` files ahead of application (ThreadPool::
/// run_pipelined), so a backlog is never held decoded at once; application
/// is strictly in name order, so every aggregate is byte-identical at any
/// pool size.
///
/// Crash safety: the YCK1 service checkpoint (aggregates + processed-file
/// ledger + shed log + control-mutation history) is flushed after every
/// `checkpoint_every` files and at graceful shutdown. A kill -9 loses at
/// most the files since the last checkpoint; `--resume` replays exactly
/// those from the spool and converges to byte-identical aggregates.
struct ServiceOptions {
    std::filesystem::path spool_dir;
    std::filesystem::path run_dir;
    /// Unix-domain control socket; empty = no control endpoint. A socket
    /// that cannot be bound degrades the daemon (warned, running) instead
    /// of failing it.
    std::filesystem::path socket_path;
    bool resume = false;
    /// Ingest everything currently in the spool, then quiesce — the
    /// batch-flavored entry the determinism tests and reference runs use.
    bool once = false;
    double gap_T_s = 1.0;        // session gap threshold (Section VI-A)
    std::size_t queue_capacity = 0;   // ingest queue, batches; 0 = unbounded
    std::size_t batch_records = 4096; // records per admission-control batch
    int tick_ms = 50;                 // idle pacing: the control-poll wait
                                      // before re-scanning an empty spool
    std::size_t checkpoint_every = 1; // files between checkpoints; 0 = only
                                      // at shutdown
    std::size_t threads = 0;          // parse pool; 0 = YTCDN_THREADS/cores
    study::StagePolicy policy;        // retry ladder for ingest stages
    std::ostream* log = nullptr;      // "[ytcdnd] ..." progress; null=silent
};

/// Ledger entry for one spool file the daemon has dealt with. Recorded in
/// the checkpoint (so resume never re-ingests) and the manifest.
struct ProcessedFile {
    std::string name;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;       // crc32 of the file bytes as ingested
    std::uint64_t records = 0;   // records applied to the aggregates
    std::uint32_t batches = 0;   // admitted batches
    std::uint32_t shed_batches = 0;
    std::string status;          // "ok" | "quarantined"
};

struct ServiceReport {
    std::uint64_t files_ingested = 0;
    std::uint64_t records_ingested = 0;
    std::uint64_t batches_shed = 0;
    std::uint64_t records_shed = 0;
    bool clean_shutdown = false;
    std::filesystem::path manifest_path;    // run_dir/service_manifest.txt
    std::filesystem::path aggregates_path;  // run_dir/aggregates.txt
    std::vector<std::string> warnings;
};

/// Signal- and thread-safe stop request (the SIGTERM/SIGINT handler calls
/// this; tests call it directly, from any thread). The loop quiesces at the
/// next tick boundary; an idle tick waits in slices of at most 100 ms, so a
/// stop ends it within that however long `tick_ms` is.
void request_stop() noexcept;
[[nodiscard]] bool stop_requested() noexcept;
/// Re-arms the loop after a handled stop (process startup / in-process
/// tests that run several services).
void clear_stop() noexcept;

class Service {
public:
    explicit Service(ServiceOptions options);

    /// The YCK1 key for the service checkpoint: every option that shapes
    /// aggregate bytes (gap, batching, queue capacity) folded together, so
    /// resuming under different knobs is a KeyMismatch, never silently
    /// divergent aggregates.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept {
        return fingerprint_;
    }

    [[nodiscard]] util::Result<ServiceReport> run();

private:
    ServiceOptions options_;
    std::uint64_t fingerprint_ = 0;
};

}  // namespace ytcdn::service
