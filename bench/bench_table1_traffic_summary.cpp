// Table I — traffic summary for the datasets: YouTube flows, downloaded
// volume, distinct servers and clients per vantage point.

#include "analysis/incremental.hpp"
#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_dataset_summary(benchmark::State& state) {
    const auto& ds = bench::shared_run().traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(ds, analysis::IncrementalSummary{}));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_dataset_summary);

void bm_full_trace_capture(benchmark::State& state) {
    // The expensive end of Table I: simulating + capturing one week at a
    // small scale (0.01), per iteration.
    for (auto _ : state) {
        study::StudyConfig cfg = bench::bench_config();
        cfg.scale = 0.01;
        benchmark::DoNotOptimize(study::run_study(cfg));
    }
}
BENCHMARK(bm_full_trace_capture)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
