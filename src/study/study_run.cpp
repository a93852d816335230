#include "study/study_run.hpp"

#include <stdexcept>
#include <tuple>
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
    if (!vp_index_by_name.empty()) {
        const auto it = vp_index_by_name.find(std::string(name));
        if (it != vp_index_by_name.end()) return it->second;
        throw std::out_of_range("StudyRun::vp_index: unknown dataset");
    }
    // Hand-assembled runs (tests) may not have built the index.
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        if (traces.datasets[i].name == name) return i;
    }
    throw std::out_of_range("StudyRun::vp_index: unknown dataset");
}

const capture::Dataset& StudyRun::dataset(std::string_view name) const {
    return traces.datasets[vp_index(name)];
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
    // The closure captures only `run`, read-only; ytcdn-parallel-shared-mutation
    // verifies nothing shared is written from the tasks.
    const std::size_t n = run.deployment->num_vantage_points();
    auto derived = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        auto map = ground_truth_dc_map(*run.deployment, run.deployment->vantage(i));
        const int preferred = analysis::preferred_dc(run.traces.datasets[i], map);
        return std::pair<analysis::ServerDcMap, int>(std::move(map), preferred);
    });
    run.maps.reserve(n);
    run.preferred.reserve(n);
    for (auto& [map, preferred] : derived) {
        run.maps.push_back(std::move(map));
        run.preferred.push_back(preferred);
    }
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        run.vp_index_by_name.emplace(run.traces.datasets[i].name, i);
    }
    // SoA mirrors + per-flow dc columns + CSR session tables, one bundle
    // per vantage point. Independent per-VP tasks; results in input order.
    auto bundles = util::parallel_map_indexed(pool, n, [&run](std::size_t i) {
        auto table = capture::FlowTable::from_dataset(run.traces.datasets[i]);
        auto dc = analysis::dc_column(table, run.maps[i]);
        auto sessions = analysis::SessionTable::build(table, 1.0);
        return std::tuple(std::move(table), std::move(dc), std::move(sessions));
    });
    run.tables.reserve(n);
    run.dc_columns.reserve(n);
    run.sessions.reserve(n);
    for (auto& [table, dc, sessions] : bundles) {
        run.tables.push_back(std::move(table));
        run.dc_columns.push_back(std::move(dc));
        run.sessions.push_back(std::move(sessions));
    }
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
