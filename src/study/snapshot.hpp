#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <optional>
#include <string>

#include "study/config.hpp"
#include "study/trace_driver.hpp"
#include "util/error.hpp"

namespace ytcdn::study {

/// Binary snapshot of a simulated week ("YSS2").
///
/// Re-simulating the trace dominates every bench binary's start-up; the
/// snapshot lets a suite of thirty binaries pay that cost once. The format
/// wraps one capture::binary_log blob per vantage point (the same "YFL2"
/// records the converters use) in a header that keys the snapshot to the
/// run that produced it, and closes with a whole-file CRC32 so a flipped
/// bit anywhere in the cache file is detected at load time:
///
///   magic "YSS2" | u32 schema version | u64 config fingerprint |
///   u64 events_processed | u64 faults_injected | u32 vantage-point count
///   per VP: name | player stats | request/flow counters |
///           u64 blob size | binary_log blob
///   trailer: u32 crc32 of every preceding byte
///
/// The fingerprint hashes every StudyConfig field that shapes the
/// simulation (seed, scale, catalog/capacity/probability knobs...). It
/// deliberately excludes `threads`: thread count never changes outputs.
///
/// Loading via the Result entry points reports a typed ytcdn::Error (bad
/// magic, unsupported version, CRC mismatch, fingerprint mismatch,
/// truncation — each with a byte offset); the std::optional entry points
/// map any error to std::nullopt so callers fall back to simulating.
/// load_or_quarantine_snapshot additionally renames a damaged cache file
/// to "<name>.corrupt.<k>" (bounded retention — see util::io::quarantine_file)
/// so it cannot poison the next run, and reports a one-line warning; a
/// corrupt cache is never fatal.
///
/// Bump when the record layout, the fingerprint inputs, or anything else
/// about the byte format changes; stale snapshots are then re-simulated
/// (the schema version is part of the cache-file name, so old-format files
/// are simply never opened). Version 4: the stored capture counters
/// (events_processed, flows_observed/flows_ignored) no longer include a
/// background-traffic stream, so version-3 caches carry stale values.
inline constexpr std::uint32_t kSnapshotSchemaVersion = 4;

/// Stable hash of the simulation-shaping StudyConfig fields (see above).
[[nodiscard]] std::uint64_t config_fingerprint(const StudyConfig& config);

/// Cache-file name encoding the key: "trace-<seed>-<scale>-v<schema>.yss".
[[nodiscard]] std::string snapshot_name(const StudyConfig& config);

/// Writes the snapshot. Runs with a fault schedule are refused (returns
/// false): faults are opt-in experiments, not worth cache slots, and the
/// schedule is not part of the fingerprint. The path overload writes
/// atomically (tmp + fsync + rename), so a crashed writer never leaves a
/// torn snapshot under the final name.
bool write_trace_snapshot(std::ostream& os, const StudyConfig& config,
                          const TraceOutputs& traces);
bool write_trace_snapshot(const std::filesystem::path& path,
                          const StudyConfig& config, const TraceOutputs& traces);

/// Loads a snapshot previously written for `config`, reporting failures as
/// typed errors with byte-offset provenance.
[[nodiscard]] util::Result<TraceOutputs> load_trace_snapshot_result(
    std::istream& is, const StudyConfig& config);
[[nodiscard]] util::Result<TraceOutputs> load_trace_snapshot_result(
    const std::filesystem::path& path, const StudyConfig& config);

/// std::nullopt on any key mismatch (seed/scale/schema/fingerprint),
/// corruption, truncation, or a missing file (path overload) — callers
/// fall back to simulating.
[[nodiscard]] std::optional<TraceOutputs> load_trace_snapshot(
    std::istream& is, const StudyConfig& config);
[[nodiscard]] std::optional<TraceOutputs> load_trace_snapshot(
    const std::filesystem::path& path, const StudyConfig& config);

/// Like the path overload of load_trace_snapshot, but a file that exists
/// and fails validation (magic / version / CRC / fingerprint / truncation)
/// is quarantined as "<path>.corrupt.<k>" (keeping only the newest few —
/// util::io::quarantine_file) and reported through `*warning` (one line,
/// when non-null). Returns std::nullopt in that case — the caller
/// regenerates, exactly as for a cold cache.
[[nodiscard]] std::optional<TraceOutputs> load_or_quarantine_snapshot(
    const std::filesystem::path& path, const StudyConfig& config,
    std::string* warning);

}  // namespace ytcdn::study
