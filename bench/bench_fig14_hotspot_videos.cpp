// Fig. 14 — hourly load for the four videos with the most non-preferred
// accesses in EU1-ADSL. Each is a front-page "video of the day": a one-day
// popularity spike during which redirections to non-preferred data centers
// concentrate.

#include "analysis/redirect_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_top_redirected(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::top_redirected_videos(
            run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx], 4));
    }
}
BENCHMARK(bm_top_redirected)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
