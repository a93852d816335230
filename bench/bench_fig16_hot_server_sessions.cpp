// Fig. 16 — sessions per hour handled by the preferred-DC server that
// serves the most-redirected video of EU1-ADSL, broken down by whether the
// session stayed at the preferred data center. During the promotion spike,
// the server overloads and "first flow preferred, rest elsewhere" sessions
// appear: DNS was right, the server itself redirected.

#include "analysis/report_folds.hpp"
#include "bench_common.hpp"
#include "study/report.hpp"

namespace {

using namespace ytcdn;

// EU1-ADSL's report pass: Fig. 16 needs both of its passes (the session
// fold, the video ranking, then the hot server).
void bm_hot_server_sessions(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    for (auto _ : state) {
        const auto folds = analysis::fold_report(ds, study::vantage_scope(run, idx));
        const auto server = folds.hot_videos.hot_server();
        if (server) {
            benchmark::DoNotOptimize(folds.sessions.hot_server(*server, ds.name));
        }
    }
}
BENCHMARK(bm_hot_server_sessions)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
