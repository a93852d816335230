// Fig. 10 — breakdown of 1-flow sessions (a) and 2-flow sessions (b) by
// whether each flow hits the preferred data center. Disambiguates
// DNS-driven from redirection-driven non-preferred accesses.

#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

// The two halves of the figure's cost: grouping a dataset's records into
// CSR sessions (one global sort), and the pattern scan over them (dc_column
// reads per flow row).
void bm_session_table_build(benchmark::State& state) {
    const auto& ds = bench::shared_run().traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::SessionTable::build(ds, 1.0));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_table_build)->Unit(benchmark::kMillisecond);

void bm_session_patterns(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::session_patterns(
            run.sessions[0], run.dc_columns[0], run.preferred[0]));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(run.sessions[0].num_sessions()));
}
BENCHMARK(bm_session_patterns)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
