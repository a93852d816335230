// Fig. 15 — average and maximum number of requests per server in the
// EU1-ADSL preferred data center over time. URL hashing concentrates each
// video on one server, so a promoted video drives one server's load far
// above the average: the hot spots that trigger app-layer redirection.

#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_server_load(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    const analysis::IncrementalServerLoad empty(run.preferred[idx], ds.name);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::fold_records(ds, run.maps[idx], empty).series());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_server_load)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
