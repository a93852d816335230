// Fig. 5 — sensitivity of session grouping to the gap threshold T for the
// US-Campus dataset: T <= 10 s yields nearly identical sessions; large T
// additionally merges user-driven re-requests (pauses, resolution changes),
// so the paper settles on T = 1 s.

#include "analysis/session.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

constexpr double kGaps[] = {1.0, 5.0, 10.0, 60.0, 300.0};

void bm_session_table_build(benchmark::State& state) {
    const auto& ds = bench::shared_run().dataset("US-Campus");
    const double t = kGaps[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::SessionTable::build(ds, t));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_table_build)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
