// Fig. 15 — average and maximum number of requests per server in the
// EU1-ADSL preferred data center over time. URL hashing concentrates each
// video on one server, so a promoted video drives one server's load far
// above the average: the hot spots that trigger app-layer redirection.

#include "analysis/redirect_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_server_load(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::preferred_dc_server_load(
            run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx]));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[idx].records.size()));
}
BENCHMARK(bm_server_load)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
