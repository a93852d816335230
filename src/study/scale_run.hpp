#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/preferred_dc.hpp"
#include "study/study_run.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

/// Out-of-core study runner (DESIGN.md §16): the trace driver streams each
/// vantage point's capture through a FlowSink that spills YFL2 blocks to
/// disk and feeds the order-independent DC-traffic tally; a second pass
/// streams the spilled logs back through the incremental §VII modules.
/// Nothing ever materializes a week of records in memory, so peak RSS is
/// O(catalog + CDN + per-hour tallies) — independent of session count.
/// That is what bench_scale_10m measures at 10M sessions.
struct ScaleRunConfig {
    StudyConfig study;
    /// Where the per-VP YFL2 spill files land ("<vp>.yfl").
    std::filesystem::path spill_dir;
    /// Keep the spill files after the run (default: removed).
    bool keep_spill = false;
};

/// Per-vantage-point results of the streamed §VII analysis.
struct VantageScaleSummary {
    std::string name;
    std::uint64_t flows = 0;  // records spilled and re-read
    int preferred = -1;
    analysis::NonPreferredShare share;
    /// §VII-A discriminator: corr(flows/hour, non-preferred fraction/hour).
    double load_correlation = 0.0;
    /// Videos with at least one non-preferred download (Fig. 13 support).
    std::uint64_t redirected_videos = 0;
};

struct ScaleRunSummary {
    std::uint64_t sessions = 0;  // requests generated across all VPs
    std::uint64_t flows = 0;
    std::uint64_t events = 0;
    std::vector<VantageScaleSummary> vantage;
};

/// Runs the two-pass out-of-core study. Pass 1 simulates on the trace
/// driver with spilling sinks (sequential, like every trace run); pass 2
/// fans the per-VP streamed analyses out on `pool`. Deterministic: same
/// config, same summary, any thread count.
[[nodiscard]] util::Result<ScaleRunSummary> run_scale_study(
    const ScaleRunConfig& config, util::ThreadPool& pool);

}  // namespace ytcdn::study
