// Fig. 10 — breakdown of 1-flow sessions (a) and 2-flow sessions (b) by
// whether each flow hits the preferred data center. Disambiguates
// DNS-driven from redirection-driven non-preferred accesses.

#include "analysis/report_folds.hpp"
#include "bench_common.hpp"
#include "study/report.hpp"

namespace {

using namespace ytcdn;

// The figure's cost, and the pass it rides on: one session fold (grouping
// plus the per-session pattern payload), and the whole per-vantage-point
// report pass (every flow-derived fold, both passes).
void bm_session_fold(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[0];
    for (auto _ : state) {
        auto fold = analysis::fold_records(ds, run.maps[0],
                                           analysis::SessionFold(run.preferred[0]));
        fold.finish();
        benchmark::DoNotOptimize(fold.patterns());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_fold)->Unit(benchmark::kMillisecond);

void bm_report_pass(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::fold_report(ds, study::vantage_scope(run, 0)));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_report_pass)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
