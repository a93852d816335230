// Fig. 7 — cumulative fraction of YouTube bytes served by data centers with
// probe RTT below x. Except for EU2, one (preferred, lowest-RTT) data
// center provides >85% of the traffic.

#include "analysis/geo_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_bytes_vs_rtt(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::bytes_vs_rtt(
            analysis::traffic_by_dc(ds, run.maps[0]), run.maps[0], ds.name));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[0].records.size()));
}
BENCHMARK(bm_bytes_vs_rtt)->Unit(benchmark::kMillisecond);

void bm_preferred_dc(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::preferred_dc(run.traces.datasets[4], run.maps[4]));
    }
}
BENCHMARK(bm_preferred_dc)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
