// Fig. 13 — for every video downloaded at least once from a non-preferred
// data center, the number of such downloads. A large mass at exactly one
// (unpopular content found only at its origin) plus a long hot-spot tail.

#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_video_redirect_counts(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(run.traces.datasets[2], run.maps[2],
                                   analysis::IncrementalVideoRedirects(run.preferred[2]))
                .counts_cdf());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[2].records.size()));
}
BENCHMARK(bm_video_redirect_counts)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
