// Fig. 16 — sessions per hour handled by the preferred-DC server that
// serves the most-redirected video of EU1-ADSL, broken down by whether the
// session stayed at the preferred data center. During the promotion spike,
// the server overloads and "first flow preferred, rest elsewhere" sessions
// appear: DNS was right, the server itself redirected.

#include "analysis/redirect_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 16: hourly sessions at the server handling video1 (EU1-ADSL)",
        "most sessions stay all-preferred for six days; on the promotion "
        "day the request count jumps and app-layer redirections "
        "(first-flow-preferred sessions) surge");
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    const auto top =
        analysis::top_redirected_videos(ds, run.dc_columns[idx], run.preferred[idx], 1);
    if (top.empty()) {
        std::cout << "no redirected videos at this scale\n";
        return;
    }
    const auto hot = analysis::hot_server_sessions(
        ds, run.sessions[idx], run.dc_columns[idx], run.preferred[idx], top.front());
    std::cout << "video1 = " << top.front().to_string() << ", served by "
              << hot.server.to_string() << '\n';
    double all_pref = 0.0, first_pref = 0.0, others = 0.0;
    for (const auto& [h, v] : hot.all_preferred.points) all_pref += v;
    for (const auto& [h, v] : hot.first_preferred_then_other.points) first_pref += v;
    for (const auto& [h, v] : hot.others.points) others += v;
    std::cout << "sessions: " << all_pref << " all-preferred, " << first_pref
              << " first-preferred-then-redirected, " << others << " others\n\n";
    analysis::write_series(
        std::cout, {hot.all_preferred, hot.first_preferred_then_other, hot.others}, 0,
        0);
}

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

YTCDN_BENCH_MAIN(print_reproduction)
