#include "study/study_run.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/streaming.hpp"
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
    const auto it = vp_index_by_name.find(std::string(name));
    if (it != vp_index_by_name.end()) return it->second;
    throw std::out_of_range("StudyRun::vp_index: unknown dataset");
}

const capture::Dataset& StudyRun::dataset(std::string_view name) const {
    return traces.datasets[vp_index(name)];
}

void index_study_run(StudyRun& run, util::ThreadPool& pool) {
    const auto& datasets = run.traces.datasets;
    if (run.maps.size() != datasets.size()) {
        throw std::invalid_argument("index_study_run: one map per dataset required");
    }
    run.vp_index_by_name.clear();
    for (std::size_t i = 0; i < datasets.size(); ++i) {
        run.vp_index_by_name.emplace(datasets[i].name, i);
    }
    // Per-flow dc columns + CSR session tables, one pair per vantage point.
    // Independent per-VP tasks; results in input order.
    auto derived =
        util::parallel_map_indexed(pool, datasets.size(), [&run](std::size_t i) {
            const auto& ds = run.traces.datasets[i];
            return std::pair(analysis::dc_column(ds, run.maps[i]),
                             analysis::SessionTable::build(ds, 1.0));
        });
    run.dc_columns.clear();
    run.sessions.clear();
    for (auto& [dc, sessions] : derived) {
        run.dc_columns.push_back(std::move(dc));
        run.sessions.push_back(std::move(sessions));
    }
}

namespace {

StudyRun derive_run(const StudyConfig& config,
                    std::unique_ptr<StudyDeployment> deployment,
                    TraceOutputs traces, util::ThreadPool& pool) {
    StudyRun run;
    run.config = config;
    run.deployment = std::move(deployment);
    run.traces = std::move(traces);

    // Each vantage point's map derivation pings with its own Pinger seeded
    // from (config seed, vp name) — independent tasks, input-order results.
    // The closures capture only `run`, read-only; ytcdn-parallel-shared-mutation
    // verifies nothing shared is written from the tasks.
    const std::size_t n = run.deployment->num_vantage_points();
    run.maps = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        return ground_truth_dc_map(*run.deployment, run.deployment->vantage(i));
    });
    index_study_run(run, pool);
    // The preferred DC folds the dc columns index_study_run just resolved.
    run.preferred = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        return analysis::fold_records(run.traces.datasets[i], run.dc_columns[i],
                                      analysis::IncrementalDcTraffic{})
            .preferred(run.maps[i]);
    });
    study_metrics().maps_derived.inc(n);
    return run;
}

}  // namespace

StudyRun assemble_study_run(const StudyConfig& config, TraceOutputs traces,
                            util::ThreadPool& pool) {
    return derive_run(config, std::make_unique<StudyDeployment>(config),
                      std::move(traces), pool);
}

StudyRun run_study(const StudyConfig& config, util::ThreadPool& pool,
                   sim::Tracer* tracer) {
    study_metrics().runs.inc();
    auto deployment = std::make_unique<StudyDeployment>(config);
    TraceDriver driver(*deployment);
    driver.set_tracer(tracer);
    TraceOutputs traces = driver.run();
    return derive_run(config, std::move(deployment), std::move(traces), pool);
}

StudyRun run_study(const StudyConfig& config, sim::Tracer* tracer) {
    util::ThreadPool pool(config.effective_threads());
    return run_study(config, pool, tracer);
}

}  // namespace ytcdn::study
