// Fig. 11 — EU2 over time: fraction of video flows served by the in-ISP
// (preferred) data center (top) and total video flows per hour (bottom).
// Nights: ~100% local; busy hours: the local share collapses to ~30%,
// evidence of adaptive DNS-level load balancing.

#include <algorithm>

#include "analysis/loadbalance_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 11: EU2 local-DC share and request volume over the week",
        "clear day/night pattern; ~100% local at night, ~30% during the "
        "~6000-flows/hour daytime peaks, constant across the whole week");
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU2");
    const auto series = analysis::hourly_preferred_series(
        run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx]);

    double peak_flows = 0.0, busiest_fraction = 1.0, quiet_fraction = 0.0;
    for (std::size_t h = 0; h < series.fraction_preferred.points.size(); ++h) {
        const double flows = series.flows_per_hour.points[h].second;
        const double frac = series.fraction_preferred.points[h].second;
        if (flows > peak_flows) {
            peak_flows = flows;
            busiest_fraction = frac;
        }
        if (flows > 10.0) quiet_fraction = std::max(quiet_fraction, frac);
    }
    std::cout << "Peak hour: " << peak_flows << " video flows ("
              << analysis::fmt(peak_flows / bench::bench_scale(), 0)
              << " rescaled to paper volume; paper ~6000), local share "
              << analysis::fmt_pct(busiest_fraction, 1) << "%   # paper ~30%\n";
    std::cout << "Best quiet-hour local share: "
              << analysis::fmt_pct(quiet_fraction, 1) << "%   # paper ~100%\n\n";

    // Section VII-A's discriminator: only EU2's non-preferred fraction
    // should track the request volume.
    std::cout << "corr(hourly flows, hourly non-preferred fraction):\n";
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const double corr = analysis::load_vs_nonpreferred_correlation(
            run.traces.datasets[i], run.dc_columns[i], run.preferred[i]);
        std::cout << "  " << run.traces.datasets[i].name << ": "
                  << analysis::fmt(corr, 2)
                  << (run.traces.datasets[i].name == "EU2"
                          ? "   # paper: strong (adaptive DNS LB)\n"
                          : "   # paper: much weaker\n");
    }
    std::cout << '\n';
    analysis::write_series(std::cout,
                           {series.fraction_preferred, series.flows_per_hour},
                           0, 3);
}

void bm_hourly_series(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU2");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::hourly_preferred_series(
            run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx]));
    }
}
BENCHMARK(bm_hourly_series)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
