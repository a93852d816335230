#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/binary_log.hpp"
#include "study/report.hpp"
#include "study/trace_driver.hpp"
#include "util/error.hpp"

namespace ytcdn::study {

/// Crash-safe persisted state ("YCK1"): the one frame for every piece of
/// study state written to disk.
///
/// Each completed pipeline stage (see study/supervisor.hpp) persists its
/// output under `<run-dir>/checkpoints/<stage>.yck` so a killed run can be
/// resumed without redoing finished work (the Capture stage's output is the
/// flow logs the Simulate frame names); the bench trace cache stores its
/// simulated week as a Simulate-stage frame beside its logs and ytcdnd its
/// service state as a Service-stage frame. The frame mirrors the repo's
/// other on-disk formats (YFL2 / YTR1): explicit magic + version, a key
/// that ties the file to the run that produced it, and a whole-file CRC32
/// so any flipped bit is detected at load time:
///
///   magic "YCK1" | u32 version | u64 run fingerprint | u32 stage id |
///   u64 payload size | payload | trailer u32 crc32 of every prior byte
///
/// A study run's fingerprint extends config_fingerprint with the report
/// options (see Supervisor::run_fingerprint): resuming with different flags
/// is a KeyMismatch, never a silently wrong report. Checkpoints are written via
/// util::io::write_file_atomic, so a SIGKILL mid-write leaves at most a
/// stale ".tmp" — never a torn file under the final name. A checkpoint
/// that fails validation is quarantined (bounded, numbered — see
/// util::io::quarantine_file) and its stage is simply recomputed:
/// checkpoint damage is never fatal.
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// The supervised pipeline's stages, in execution order. Values are the
/// on-disk stage ids of the YCK1 frame — append only, never renumber.
enum class Stage : std::uint32_t {
    Simulate = 0,  // run the discrete-event week -> TraceOutputs
    Capture,       // write per-vantage-point flow logs (no frame of its
                   // own: the Simulate payload names the logs)
    Geolocate,     // derive per-VP server->DC maps + preferred DCs
    Analyze,       // render every report artifact
    Render,        // write report.txt, artifacts/, manifest.txt
    Service,       // ytcdnd's incremental-aggregate state (not a pipeline
                   // stage: the daemon reuses the YCK1 frame + quarantine
                   // machinery for its crash-safe service checkpoint)
};
/// Pipeline stages only — Stage::Service is a frame id, not a stage the
/// supervisor iterates.
inline constexpr std::size_t kNumStages = 5;
inline constexpr std::size_t kNumStageIds = 6;

/// Stable lower-case stage name ("simulate", ... , "render").
[[nodiscard]] std::string_view to_string(Stage stage) noexcept;

/// `<run_dir>/checkpoints/<stage>.yck`.
[[nodiscard]] std::filesystem::path checkpoint_path(
    const std::filesystem::path& run_dir, Stage stage);

/// Frames `payload` and writes it atomically (typed Io errors on failure).
[[nodiscard]] util::Result<void> write_checkpoint(
    const std::filesystem::path& path, std::uint64_t fingerprint, Stage stage,
    std::string_view payload);

/// Loads and validates a frame, returning the payload bytes. Errors carry
/// the repo's corruption taxonomy: BadMagic / UnsupportedVersion /
/// KeyMismatch (fingerprint or stage) / Truncated / ChecksumMismatch.
[[nodiscard]] util::Result<std::string> load_checkpoint(
    const std::filesystem::path& path, std::uint64_t fingerprint, Stage stage);

/// nullopt when the file is missing (cold start) or invalid; an invalid
/// file is quarantined as "<path>.corrupt.<k>" and described through
/// `*warning` (one line, when non-null) so the stage recomputes.
[[nodiscard]] std::optional<std::string> load_or_quarantine_checkpoint(
    const std::filesystem::path& path, std::uint64_t fingerprint, Stage stage,
    std::string* warning);

/// --- Stage payload codecs -----------------------------------------------
///
/// All integers little-endian; doubles stored as raw IEEE-754 bits so a
/// resumed run is bit-identical to an uninterrupted one. Strings are
/// u32 length + bytes. Map assignments are sorted by /24 address before
/// encoding, making the payload independent of hash-table iteration order.

/// Simulate stage: the simulated week's counters, plus the (name, size,
/// CRC32) of each vantage point's YFL2 flow log. The records live only in
/// those logs, `<log dir>/<name>.yfl` (a study run's logs/, which the
/// Capture stage writes; the bench cache's week directory), so the week is
/// persisted once.
///
///   u64 events_processed | u64 faults_injected | u32 vantage-point count
///   per VP: name | player stats | u64 requests_generated |
///           u64 flows_observed | u64 flows_ignored |
///           u64 log size | u32 crc32 of the log
///
/// encode_traces returns the payload with the logs it describes, each
/// encoded once by capture::write_binary_log_bytes; its second form takes
/// logs already held as pieces (the Supervisor's week, built frame by
/// frame) and returns the payload alone.
///
/// load_week bounds every count (at most 64 vantage points, 1 MiB names
/// and retry histograms, 16 GiB logs) and rejects a name that is not a
/// plain file stem, all before it touches a file; then it reads each log
/// once, checks its size and CRC against the payload (ChecksumMismatch; a
/// missing log is the read's Io error) and its YFL2 header, and holds its
/// bytes undecoded. decode_traces is load_week plus decoding every log
/// into datasets[i].records.
struct EncodedWeek {
    std::string payload;            // the Simulate-stage payload
    std::vector<std::string> logs;  // YFL2 bytes of datasets[i].records
};
[[nodiscard]] EncodedWeek encode_traces(const TraceOutputs& traces);
[[nodiscard]] std::string encode_traces(const TraceOutputs& traces,
                                        std::span<const capture::LogPieces> logs);

/// A week as the Simulate payload and its logs describe it, undecoded:
/// traces.datasets hold names only, logs[i] holds vantage point i's log as
/// one piece.
struct StoredWeek {
    TraceOutputs traces;
    std::vector<capture::LogPieces> logs;
};
[[nodiscard]] util::Result<StoredWeek> load_week(
    std::string_view payload, const std::filesystem::path& log_dir);
[[nodiscard]] util::Result<TraceOutputs> decode_traces(
    std::string_view payload, const std::filesystem::path& log_dir);

/// `<log_dir>/<name>.yfl`, where a vantage point's log lives.
[[nodiscard]] std::filesystem::path log_path(const std::filesystem::path& log_dir,
                                             std::string_view name);

/// Geolocate stage: every vantage point's ServerDcMap and preferred DC.
[[nodiscard]] std::string encode_geolocate(
    const std::vector<analysis::ServerDcMap>& maps,
    const std::vector<int>& preferred);
[[nodiscard]] util::Result<void> decode_geolocate(
    std::string_view payload, std::vector<analysis::ServerDcMap>* maps,
    std::vector<int>* preferred);

/// Analyze stage: the full report's artifacts plus degraded-artifact names.
[[nodiscard]] std::string encode_report(const FullReport& report);
[[nodiscard]] util::Result<FullReport> decode_report(std::string_view payload);

}  // namespace ytcdn::study
