// Fig. 8 — cumulative fraction of YouTube bytes vs geographic distance to
// the serving data center. For US-Campus the five closest data centers
// carry <2% of the traffic: RTT, not geography, drives selection.

#include "analysis/geo_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_bytes_vs_distance(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::bytes_vs_distance(
            analysis::traffic_by_dc(ds, run.maps[0]), run.maps[0], ds.name));
    }
}
BENCHMARK(bm_bytes_vs_distance)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
