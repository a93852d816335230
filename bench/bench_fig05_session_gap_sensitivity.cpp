// Fig. 5 — sensitivity of session grouping to the gap threshold T for the
// US-Campus dataset: T <= 10 s yields nearly identical sessions; large T
// additionally merges user-driven re-requests (pauses, resolution changes),
// so the paper settles on T = 1 s.

#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

constexpr double kGaps[] = {1.0, 5.0, 10.0, 60.0, 300.0};

void print_reproduction() {
    bench::print_banner(
        "Fig. 5: flows per session vs gap threshold T (US-Campus)",
        "T=1/5/10 s give nearly identical groupings; T=60/300 s merge "
        "user-interaction flows into multi-flow sessions");
    const auto& ds = bench::shared_run().dataset("US-Campus");
    std::vector<analysis::Series> series;
    for (const double t : kGaps) {
        const auto sessions = analysis::SessionTable::build(ds, t);
        const auto cdf = analysis::flows_per_session_cdf(sessions);
        std::cout << "T=" << t << "s: " << sessions.num_sessions() << " sessions, "
                  << analysis::fmt_pct(cdf[0], 1) << "% single-flow\n";
        analysis::Series s;
        s.name = "T=" + std::to_string(static_cast<int>(t)) + "s flows/session CDF";
        for (std::size_t i = 0; i < cdf.size(); ++i) {
            s.points.emplace_back(static_cast<double>(i + 1), cdf[i]);
        }
        series.push_back(std::move(s));
    }
    std::cout << '\n';
    analysis::write_series(std::cout, series, 0, 4);
}

void bm_session_table_build(benchmark::State& state) {
    const auto& ds = bench::shared_run().dataset("US-Campus");
    const double t = kGaps[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::SessionTable::build(ds, t));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_table_build)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
