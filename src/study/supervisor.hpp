#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/tracer.hpp"
#include "study/checkpoint.hpp"
#include "study/config.hpp"
#include "util/error.hpp"

namespace ytcdn::study {

/// Per-stage supervision policy, shared by all five stages.
struct StagePolicy {
    /// Attempts per stage before the supervisor gives up on it (>= 1).
    /// Transient injected faults (see util::io::FaultPlan) are exactly what
    /// the retry exists for.
    int attempts = 3;
    /// First retry sleeps this long, doubling per attempt. Tests set 0.
    double backoff_s = 0.0;
    /// Soft wall-clock budget per stage, seconds; 0 = no budget. An
    /// overrun is reported (metrics + Guard trace event + manifest), not
    /// fatal: the study's answer is still worth having late.
    double deadline_s = 0.0;
    /// Soft peak-RSS ceiling, MiB; 0 = no ceiling. Same reporting-only
    /// semantics as the deadline.
    double max_rss_mib = 0.0;
};

struct SupervisorOptions {
    /// Where checkpoints, logs, artifacts, report.txt and manifest.txt go.
    std::filesystem::path run_dir;
    /// Load completed-stage checkpoints from run_dir instead of recomputing
    /// (the CLI's --resume). A resumed run renders a byte-identical
    /// report.txt; stale/corrupt/foreign checkpoints are quarantined and
    /// their stages recomputed.
    bool resume = false;
    /// Skip writing checkpoints (chaos experiments that only want the
    /// supervision semantics). Runs with a sim fault schedule write and
    /// read none regardless: config_fingerprint does not cover the schedule.
    bool checkpoints = true;
    /// Stop after this many stages (0 = all). Tests use it to simulate a
    /// crash at a stage boundary; the interrupted run writes its manifest
    /// and is resumable.
    std::size_t max_stages = 0;
    ReportOptions report;
    StagePolicy policy;
    /// Progress/warning lines ("[supervisor] ..."); null = silent.
    std::ostream* log = nullptr;
    /// Receives the simulated week's events (none when the week is resumed
    /// from its logs) and Guard events for resource-guard overruns; may be
    /// null.
    sim::Tracer* tracer = nullptr;
};

/// What one supervised attempt ladder observed: the reusable core of the
/// per-stage retry/backoff machinery, shared by the study pipeline and
/// ytcdnd's per-file ingest stages (src/service).
struct StageOutcome {
    std::string name;
    int attempts = 0;
    bool completed = false;
    bool deadline_exceeded = false;  // soft guard: reported, never fatal
    bool rss_exceeded = false;       // soft guard: reported, never fatal
    std::string error;               // last attempt's failure, if any
    ErrorCode error_code = ErrorCode::Io;  // code of that failure
    double wall_s = 0.0;
    std::uint64_t peak_rss_kb = 0;   // process peak after the ladder
};

/// Runs `body` under the retry/backoff ladder: up to policy.attempts tries,
/// backoff_s doubling between them, typed errors and std::exceptions both
/// caught, wall/RSS measured, the soft deadline/RSS guards evaluated into
/// the outcome flags (and the supervisor.* guard metrics). `log`, when
/// non-null, receives one "[supervised] retrying ..." line per retry.
/// Emission of warnings/trace events stays with the caller — this helper
/// only observes.
[[nodiscard]] StageOutcome run_supervised(std::string_view name,
                                          const StagePolicy& policy,
                                          const std::function<void()>& body,
                                          std::ostream* log = nullptr);

/// What happened to one stage, for the manifest and the caller.
struct StageStatus {
    Stage stage = Stage::Simulate;
    int attempts = 0;              // 0 = never started (interrupted earlier)
    bool completed = false;
    bool from_checkpoint = false;  // satisfied by a resume checkpoint
    bool degraded = false;         // failed but the run continued without it
    bool deadline_exceeded = false;
    bool rss_exceeded = false;
    std::string error;             // last attempt's failure, if any
    double wall_s = 0.0;
    std::uint64_t peak_rss_kb = 0;  // process peak after the stage
};

struct SupervisorResult {
    std::vector<StageStatus> stages;
    /// Degraded artifacts: report artifacts that rendered as placeholders,
    /// "capture" when the flow logs could not be written, and
    /// "artifacts/<name>" / "logs/<name>.dcmap" files that failed to land
    /// on disk.
    std::vector<std::string> degraded;
    std::vector<std::string> warnings;
    bool completed = false;  // all five stages ran (not max_stages-limited)
    std::filesystem::path report_path;    // run_dir/report.txt
    std::filesystem::path manifest_path;  // run_dir/manifest.txt
};

/// Runs the study pipeline as five supervised stages
/// (simulate -> capture -> geolocate -> analyze -> render) with per-stage
/// retry/backoff, crash-safe YCK1 checkpoints, graceful degradation and
/// soft resource guards. See DESIGN.md §12.
///
/// The run directory holds the week once: `logs/<vp>.yfl` (YFL2, written
/// by the Capture stage) beside `logs/<vp>.dcmap` (written by Render), so
/// it doubles as a ytcdnd spool; `checkpoints/simulate.yck` keeps only the
/// week's counters and each log's size and CRC, and a resume re-reads the
/// logs (a missing or altered one re-simulates the week). In memory the
/// week is held once too: each log as block frames, built by Simulate,
/// written and kept by Capture, folded in place by Geolocate and Analyze
/// (which open no log) and freed before Render (DESIGN.md §12.2).
///
/// Degradation ladder: a failing report artifact becomes a placeholder
/// (non-strict mode, as in make_full_report); capture logs or a derived
/// file that cannot be written are listed as degraded in the manifest; only a
/// required stage exhausting its attempts fails the run. Strict mode
/// (StudyConfig::effective_strict_artifacts) turns every degradation into
/// a failure, generalizing YTCDN_STRICT_ARTIFACTS.
class Supervisor {
public:
    Supervisor(StudyConfig config, SupervisorOptions options);

    /// The YCK1 key: config_fingerprint folded with the report options, so
    /// resuming under different flags is a KeyMismatch, not a wrong report.
    [[nodiscard]] std::uint64_t run_fingerprint() const noexcept {
        return fingerprint_;
    }

    [[nodiscard]] util::Result<SupervisorResult> run();

private:
    StudyConfig config_;
    SupervisorOptions options_;
    std::uint64_t fingerprint_ = 0;
};

}  // namespace ytcdn::study
