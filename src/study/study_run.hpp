#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_replay.hpp"
#include "study/deployment.hpp"
#include "study/trace_driver.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

/// A complete, analysis-ready run of the study: deployment + one week of
/// traces + per-vantage-point data-center maps and preferred data centers.
/// Benches and examples start from one of these.
struct StudyRun {
    StudyConfig config;
    std::unique_ptr<StudyDeployment> deployment;
    TraceOutputs traces;
    /// The supervised study's week: vantage point i's YFL2 log as pieces
    /// (block frames as Simulate built them, or one piece read back on a
    /// resume), with traces.datasets holding names only. Empty when the
    /// records are in traces.datasets (run_study).
    std::vector<capture::LogPieces> logs;
    /// Ground-truth server->DC map per vantage point (probe RTT measured).
    std::vector<analysis::ServerDcMap> maps;
    /// Preferred data-center index (into maps[i]) per vantage point.
    std::vector<int> preferred;

    /// Index of the dataset (vantage point) named `name`; the analyses
    /// resolve vantage points by name. Throws std::out_of_range.
    [[nodiscard]] std::size_t vp_index(std::string_view name) const;
    [[nodiscard]] const capture::Dataset& dataset(std::string_view name) const;
    /// Vantage point i's records as the folds replay them: logs[i] when the
    /// week is held as logs, else traces.datasets[i].
    [[nodiscard]] capture::FlowReplay records(std::size_t i) const;
};

/// Builds the deployment, simulates the week, and derives the per-vantage
/// point maps and preferred data centers. The simulation's events stay on
/// one lane (all vantage points share one CDN), with the request draws and
/// DPI beside it on `pool` (TraceDriver::run); the derivation stages fan
/// out on `pool`. A non-null `tracer` collects the
/// simulation's structured event stream (see sim/tracer.hpp) without
/// changing any output byte.
[[nodiscard]] StudyRun run_study(const StudyConfig& config, util::ThreadPool& pool,
                                 sim::Tracer* tracer = nullptr);
/// Same, on a pool sized by config.effective_threads().
[[nodiscard]] StudyRun run_study(const StudyConfig& config,
                                 sim::Tracer* tracer = nullptr);

/// Rebuilds the analysis-ready run around already-simulated traces (e.g.
/// decoded from a Simulate checkpoint — see study/checkpoint.hpp), whose
/// records are in traces.datasets or, when `logs` is not empty, in those
/// logs (StudyRun::logs): constructs the deployment and derives
/// maps/preferred exactly as run_study would, so the result is
/// bit-identical to the run that produced the traces.
[[nodiscard]] StudyRun assemble_study_run(const StudyConfig& config,
                                          TraceOutputs traces,
                                          util::ThreadPool& pool,
                                          std::vector<capture::LogPieces> logs = {});

}  // namespace ytcdn::study
