// Fig. 4 — CDF of YouTube flow sizes. The distinct kink separates control
// flows (<1000 bytes: redirects, resolution-change messages) from video
// flows; the paper derives its classification threshold from it.

#include "analysis/stats.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_flow_size_cdf(benchmark::State& state) {
    const auto& ds = bench::shared_run().traces.datasets[0];
    for (auto _ : state) {
        analysis::EmpiricalCdf cdf;
        for (const auto& r : ds.records) cdf.add(static_cast<double>(r.bytes));
        cdf.finalize();
        benchmark::DoNotOptimize(cdf.quantile(0.5));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_flow_size_cdf)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
