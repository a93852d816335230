// Fig. 9 — CDF over one-hour slots of the fraction of video flows directed
// to non-preferred data centers. Stable and small for US/EU1; wildly
// varying for EU2, where 50% of slots send >40% of flows elsewhere.

#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

// Two column reads per flow: the record's start hour and its pre-resolved
// data center.
void bm_hourly_fraction(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[4];
    const analysis::IncrementalHourlyLoad empty(run.preferred[4], ds.name);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(ds, run.maps[4], empty).non_preferred_cdf());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[4].records.size()));
}
BENCHMARK(bm_hourly_fraction)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
