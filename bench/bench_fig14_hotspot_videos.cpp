// Fig. 14 — hourly load for the four videos with the most non-preferred
// accesses in EU1-ADSL. Each is a front-page "video of the day": a one-day
// popularity spike during which redirections to non-preferred data centers
// concentrate.

#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

// The figure's two passes over EU1-ADSL: rank the videos by non-preferred
// downloads, then follow the top four hour by hour.
void bm_top_redirected(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    const auto& map = run.maps[idx];
    for (auto _ : state) {
        const auto top = analysis::fold_records(
            ds, map, analysis::IncrementalVideoRedirects(run.preferred[idx]));
        analysis::IncrementalVideoLoad load(run.preferred[idx], top.top_videos(4));
        for (const auto& r : ds.records) load.add(r, map);
        benchmark::DoNotOptimize(load.hot_server());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_top_redirected)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
