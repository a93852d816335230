// Fig. 5 — sensitivity of session grouping to the gap threshold T for the
// US-Campus dataset: T <= 10 s yields nearly identical sessions; large T
// additionally merges user-driven re-requests (pauses, resolution changes),
// so the paper settles on T = 1 s.

#include "analysis/report_folds.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

constexpr double kGaps[] = {1.0, 5.0, 10.0, 60.0, 300.0};

// One session fold over US-Campus at gap T: the figure's per-gap cost.
void bm_session_fold(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("US-Campus");
    const auto& ds = run.traces.datasets[idx];
    const double t = kGaps[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        auto fold = analysis::fold_records(
            ds, run.maps[idx], analysis::SessionFold(run.preferred[idx], t));
        fold.finish();
        benchmark::DoNotOptimize(fold.flows_cdf());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_fold)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
