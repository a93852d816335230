// Fig. 6 — CDF of the number of flows per session for all five datasets at
// T = 1 s: 72.5-80.5% of sessions consist of a single flow, so most
// requests are served directly, but application-layer redirection is not
// insignificant.

#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_flows_per_session_cdf(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& sessions = run.sessions[run.vp_index("EU1-ADSL")];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::flows_per_session_cdf(sessions));
    }
}
BENCHMARK(bm_flows_per_session_cdf);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
