// Fig. 6 — CDF of the number of flows per session for all five datasets at
// T = 1 s: 72.5-80.5% of sessions consist of a single flow, so most
// requests are served directly, but application-layer redirection is not
// insignificant.

#include "analysis/report_folds.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

// EU1-ADSL's session fold at T = 1 s, ending in the figure's CDF.
void bm_flows_per_session_cdf(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    for (auto _ : state) {
        auto fold = analysis::fold_records(ds, run.maps[idx],
                                           analysis::SessionFold(run.preferred[idx]));
        fold.finish();
        benchmark::DoNotOptimize(fold.flows_cdf());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_flows_per_session_cdf)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
