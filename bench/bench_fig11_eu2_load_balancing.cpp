// Fig. 11 — EU2 over time: fraction of video flows served by the in-ISP
// (preferred) data center (top) and total video flows per hour (bottom).
// Nights: ~100% local; busy hours: the local share collapses to ~30%,
// evidence of adaptive DNS-level load balancing.

#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_hourly_series(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU2");
    const auto& ds = run.traces.datasets[idx];
    const analysis::IncrementalHourlyLoad empty(run.preferred[idx], ds.name);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(ds, run.maps[idx], empty).preferred_series());
    }
}
BENCHMARK(bm_hourly_series)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
