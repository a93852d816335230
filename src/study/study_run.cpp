#include "study/study_run.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/preferred_dc.hpp"
#include "study/dc_map_builder.hpp"
#include "util/metrics.hpp"

namespace ytcdn::study {

namespace {

struct StudyMetrics {
    util::metrics::Counter runs = util::metrics::counter("study.runs");
    util::metrics::Counter maps_derived = util::metrics::counter("study.maps_derived");
};

StudyMetrics& study_metrics() {
    static StudyMetrics metrics;
    return metrics;
}

}  // namespace

std::size_t StudyRun::vp_index(std::string_view name) const {
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        if (traces.datasets[i].name == name) return i;
    }
    throw std::out_of_range("StudyRun::vp_index: unknown dataset");
}

const capture::Dataset& StudyRun::dataset(std::string_view name) const {
    return traces.datasets[vp_index(name)];
}

capture::FlowReplay StudyRun::records(std::size_t i) const {
    return logs.empty() ? capture::FlowReplay(traces.datasets[i])
                        : capture::FlowReplay(logs[i]);
}

namespace {

StudyRun derive_run(const StudyConfig& config,
                    std::unique_ptr<StudyDeployment> deployment,
                    TraceOutputs traces, std::vector<capture::LogPieces> logs,
                    util::ThreadPool& pool) {
    StudyRun run;
    run.config = config;
    run.deployment = std::move(deployment);
    run.traces = std::move(traces);
    run.logs = std::move(logs);

    // Each vantage point's map derivation pings with its own Pinger seeded
    // from (config seed, vp name) — independent tasks, input-order results.
    // The closures capture only `run`, read-only; ytcdn-parallel-shared-mutation
    // verifies nothing shared is written from the tasks.
    const std::size_t n = run.deployment->num_vantage_points();
    run.maps = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        return ground_truth_dc_map(*run.deployment, run.deployment->vantage(i));
    });
    run.preferred = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        return analysis::preferred_dc(run.records(i), run.maps[i]);
    });
    study_metrics().maps_derived.inc(n);
    return run;
}

}  // namespace

StudyRun assemble_study_run(const StudyConfig& config, TraceOutputs traces,
                            util::ThreadPool& pool,
                            std::vector<capture::LogPieces> logs) {
    return derive_run(config, std::make_unique<StudyDeployment>(config),
                      std::move(traces), std::move(logs), pool);
}

StudyRun run_study(const StudyConfig& config, util::ThreadPool& pool,
                   sim::Tracer* tracer) {
    study_metrics().runs.inc();
    auto deployment = std::make_unique<StudyDeployment>(config);
    TraceDriver driver(*deployment);
    driver.set_tracer(tracer);
    TraceOutputs traces = driver.run(pool);
    return derive_run(config, std::move(deployment), std::move(traces), {}, pool);
}

StudyRun run_study(const StudyConfig& config, sim::Tracer* tracer) {
    util::ThreadPool pool(config.effective_threads());
    return run_study(config, pool, tracer);
}

}  // namespace ytcdn::study
