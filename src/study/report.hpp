#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/failure_analysis.hpp"
#include "analysis/geo_analysis.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/table.hpp"
#include "geoloc/cbg.hpp"
#include "study/paper_checks.hpp"
#include "study/study_run.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

/// Vantage point i of `run` as the report's folds see it.
[[nodiscard]] analysis::VantageScope vantage_scope(const StudyRun& run, std::size_t i);

/// Every flow-derived input of the report, from one pass per vantage point.
struct StudyFolds {
    /// analysis::fold_report of each vantage point, index-aligned with the
    /// datasets.
    std::vector<analysis::ReportFolds> vantage;
    /// Fig. 5's other gaps: US-Campus's sessions at T = 5, 10, 60 and 300 s
    /// (T = 1 s is vantage[us].sessions), counted by flows. Empty without a
    /// US-Campus dataset.
    std::vector<std::pair<double, analysis::FlowsPerSession>> gap_sweep;
};

/// Folds every vantage point's records of `run` (StudyRun::records: its
/// dataset, or its log held as pieces) through analysis::fold_report, one
/// pool task per vantage point, and counts Fig. 5's extra gaps in tasks of
/// their own, so the largest dataset's pass does not carry them.
/// Bit-identical at any thread count. Throws std::invalid_argument when
/// `run` lacks a map or a preferred data center (or, holding logs, a log)
/// per dataset, and ytcdn::Error when a log fails to decode.
[[nodiscard]] StudyFolds fold_study(const StudyRun& run, util::ThreadPool& pool);

/// Table I: traffic summary per dataset (flows, volume, #servers, #clients),
/// with the paper's values alongside for comparison. `folds` are in the
/// study's dataset order; a non-null `measured` receives the table's
/// paper_checks.txt measurements.
[[nodiscard]] analysis::AsciiTable make_table1(
    const std::vector<analysis::ReportFolds>& folds,
    std::vector<Measurement>* measured = nullptr);

/// Table II: percentage of servers and bytes per AS group per dataset; a
/// non-null `measured` receives its paper_checks.txt measurements.
[[nodiscard]] analysis::AsciiTable make_table2(
    const std::vector<analysis::ReportFolds>& folds,
    std::vector<Measurement>* measured = nullptr);

/// Table III: located Google servers per continent per dataset.
/// `counts[i]` must correspond to dataset i.
[[nodiscard]] analysis::AsciiTable make_table3(
    const StudyRun& run, const std::vector<analysis::ContinentCounts>& counts);

/// Bridges the workload layer's per-player stats into the analysis layer's
/// failure counters (the analysis library does not link workload).
[[nodiscard]] analysis::VantageFailureCounts failure_counts_of(
    std::string vantage, const workload::Player::Stats& stats);

/// All vantage points' failure counters for the run, in dataset order.
[[nodiscard]] std::vector<analysis::VantageFailureCounts> failure_counts(
    const StudyRun& run);

/// Per-vantage session-failure breakdown (rates + terminal causes); the
/// chaos-run companion to Table I.
[[nodiscard]] analysis::AsciiTable make_failure_table(const StudyRun& run);

/// Connection-retry histogram per vantage point.
[[nodiscard]] analysis::AsciiTable make_retry_table(const StudyRun& run);

/// One named paper artifact: "table1.txt" holds rendered ASCII, a
/// "figNN_*.dat" holds gnuplot-ready series blocks.
struct ReportArtifact {
    std::string name;
    std::string content;
};

/// Every table and figure the study derives from one StudyRun, in a fixed
/// name order that does not depend on how the report was computed.
struct FullReport {
    std::vector<ReportArtifact> artifacts;

    /// Names of artifacts that failed and were replaced with a placeholder
    /// (non-strict mode only; empty on a healthy run). The supervisor lists
    /// these in the run manifest instead of aborting the campaign.
    std::vector<std::string> degraded;

    /// The artifact's content, or nullptr if the report was built without it
    /// (e.g. table3 with ReportOptions::include_table3 = false).
    [[nodiscard]] const std::string* content(std::string_view name) const;

    /// Concatenates every artifact under a "== name ==" banner — the
    /// byte-compare target of the determinism tests.
    [[nodiscard]] std::string render() const;
};

struct ReportOptions {
    /// Table III re-runs the whole CBG geolocation pipeline: calibrate 215
    /// landmarks, then locate each data center behind the vantage points'
    /// in-scope /24s once (locate_scope_dcs). Both steps fan out over the
    /// pool after the fold pass, before the other artifacts; still the most
    /// expensive artifact.
    bool include_table3 = true;
    /// Landmark set and CBG grid for Table III; tests shrink both.
    geoloc::LandmarkCounts landmarks;
    geoloc::CbgLocator::Config cbg;
};

/// Renders the full report: fold_study (which validates `run`), then each
/// artifact as an independent pure closure over the folds (and `run`),
/// dispatched to `pool`; the artifact list (order and bytes) is identical
/// at any thread count.
[[nodiscard]] FullReport make_full_report(const StudyRun& run,
                                          util::ThreadPool& pool,
                                          const ReportOptions& options = {});
/// Same, on a pool sized by run.config.effective_threads().
[[nodiscard]] FullReport make_full_report(const StudyRun& run,
                                          const ReportOptions& options = {});

}  // namespace ytcdn::study
