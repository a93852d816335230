// Fig. 13 — for every video downloaded at least once from a non-preferred
// data center, the number of such downloads. A large mass at exactly one
// (unpopular content found only at its origin) plus a long hot-spot tail.

#include "analysis/redirect_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 13: #requests per video served by non-preferred data centers",
        "~85% of such videos are downloaded exactly once from a "
        "non-preferred DC (one-off unpopular content); a long tail of "
        "popular videos reaches 1000+ redirected downloads");
    const auto& run = bench::shared_run();
    std::vector<analysis::Series> series;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto cdf = analysis::video_non_preferred_counts(
            run.traces.datasets[i], run.dc_columns[i], run.preferred[i]);
        if (cdf.empty()) continue;
        std::cout << run.traces.datasets[i].name << ": " << cdf.size()
                  << " videos ever redirected; "
                  << analysis::fmt_pct(cdf.fraction_at_or_below(1.0), 1)
                  << "% exactly once; max " << cdf.max()
                  << " redirected downloads   # paper: ~85% once, tail >1000\n";
        series.push_back(
            {run.traces.datasets[i].name + " redirect count CDF", cdf.curve(40)});
    }
    std::cout << '\n';
    analysis::write_series(std::cout, series, 0, 4);
}

void bm_video_redirect_counts(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::video_non_preferred_counts(
            run.traces.datasets[2], run.dc_columns[2], run.preferred[2]));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[2].records.size()));
}
BENCHMARK(bm_video_redirect_counts)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
