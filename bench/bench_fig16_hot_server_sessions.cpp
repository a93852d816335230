// Fig. 16 — sessions per hour handled by the preferred-DC server that
// serves the most-redirected video of EU1-ADSL, broken down by whether the
// session stayed at the preferred data center. During the promotion spike,
// the server overloads and "first flow preferred, rest elsewhere" sessions
// appear: DNS was right, the server itself redirected.

#include "analysis/redirect_analysis.hpp"
#include "analysis/session.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_hot_server_sessions(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    const auto top =
        analysis::top_redirected_videos(ds, run.dc_columns[idx], run.preferred[idx], 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::hot_server_sessions(
            ds, run.sessions[idx], run.dc_columns[idx], run.preferred[idx],
            top.front()));
    }
}
BENCHMARK(bm_hot_server_sessions)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
