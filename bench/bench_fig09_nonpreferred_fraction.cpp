// Fig. 9 — CDF over one-hour slots of the fraction of video flows directed
// to non-preferred data centers. Stable and small for US/EU1; wildly
// varying for EU2, where 50% of slots send >40% of flows elsewhere.

#include "analysis/loadbalance_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 9: CDF of hourly fraction of video flows to non-preferred DCs",
        "US/EU1: modest fractions with limited variation; EU2: 50% of "
        "one-hour samples send >40% of flows to non-preferred data centers");
    const auto& run = bench::shared_run();
    std::vector<analysis::Series> series;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto cdf = analysis::hourly_non_preferred_fraction(
            run.traces.datasets[i], run.dc_columns[i], run.preferred[i]);
        std::cout << run.traces.datasets[i].name << ": median "
                  << analysis::fmt_pct(cdf.quantile(0.5), 1) << "%, p90 "
                  << analysis::fmt_pct(cdf.quantile(0.9), 1) << "% of hourly flows "
                  << "non-preferred\n";
        series.push_back(
            {run.traces.datasets[i].name + " hourly non-preferred fraction CDF",
             cdf.curve(40)});
    }
    std::cout << '\n';
    analysis::write_series(std::cout, series, 4, 4);
}

// Two column reads per flow: the record's start hour and its pre-resolved
// data center.
void bm_hourly_fraction(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::hourly_non_preferred_fraction(
            run.traces.datasets[4], run.dc_columns[4], run.preferred[4]));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[4].records.size()));
}
BENCHMARK(bm_hourly_fraction)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
