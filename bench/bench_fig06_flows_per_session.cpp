// Fig. 6 — CDF of the number of flows per session for all five datasets at
// T = 1 s: 72.5-80.5% of sessions consist of a single flow, so most
// requests are served directly, but application-layer redirection is not
// insignificant.

#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 6: flows per session, all datasets, T = 1 s",
        "72.5-80.5% single-flow sessions; 19.5-27.5% need 2+ flows");
    const auto& run = bench::shared_run();
    std::vector<analysis::Series> series;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        const auto cdf = analysis::flows_per_session_cdf(run.sessions[i]);
        std::cout << ds.name << ": " << analysis::fmt_pct(cdf[0], 1)
                  << "% single-flow, " << analysis::fmt_pct(cdf[1], 1)
                  << "% <= 2 flows   # paper: 72.5-80.5% single\n";
        analysis::Series s;
        s.name = ds.name + " flows/session CDF";
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            s.points.emplace_back(static_cast<double>(i + 1), cdf[i]);
        }
        series.push_back(std::move(s));
    }
    std::cout << '\n';
    analysis::write_series(std::cout, series, 0, 4);
}

void bm_flows_per_session_cdf(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& sessions = run.sessions[run.vp_index("EU1-ADSL")];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::flows_per_session_cdf(sessions));
    }
}
BENCHMARK(bm_flows_per_session_cdf);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
