// Ablation — EU2 in-ISP cache capacity what-if, the ISP-planning question
// the paper's introduction motivates: how much of the ISP's YouTube demand
// stays inside the network as the in-ISP data center's sustainable request
// rate grows?

#include "analysis/streaming.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "study/dc_map_builder.hpp"
#include "study/trace_driver.hpp"

namespace {

using namespace ytcdn;

struct CapacityOutcome {
    double local_byte_share = 0.0;
    double busiest_hour_local_share = 0.0;
};

CapacityOutcome run_with_rate_factor(double factor) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = 0.02;
    cfg.eu2_local_rate_factor = factor;
    const auto run = study::run_study(cfg);
    const auto idx = run.vp_index("EU2");
    const auto share = analysis::non_preferred_share(run.traces.datasets[idx],
                                                     run.maps[idx],
                                                     run.preferred[idx]);
    const auto& ds = run.traces.datasets[idx];
    const analysis::IncrementalHourlyLoad hourly(run.preferred[idx], ds.name);
    const auto series =
        analysis::fold_records(ds, run.maps[idx], hourly).preferred_series();
    double peak_flows = 0.0;
    double busiest = 1.0;
    for (std::size_t h = 0; h < series.fraction_preferred.points.size(); ++h) {
        if (series.flows_per_hour.points[h].second > peak_flows) {
            peak_flows = series.flows_per_hour.points[h].second;
            busiest = series.fraction_preferred.points[h].second;
        }
    }
    return {1.0 - share.byte_fraction, busiest};
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: EU2 in-ISP data-center capacity sweep (what-if)",
        "the paper observes factor ~0.55 of mean demand -> ~30% local at "
        "peaks, 100% at night; provisioning above peak demand would keep "
        "all traffic inside the ISP");
    analysis::AsciiTable t({"rate factor (x mean demand)", "local byte share %",
                            "busiest-hour local share %"});
    for (const double f : {0.3, 0.55, 0.8, 1.2, 2.0, 3.0}) {
        const auto outcome = run_with_rate_factor(f);
        t.add_row({analysis::fmt(f, 2), analysis::fmt_pct(outcome.local_byte_share, 1),
                   analysis::fmt_pct(outcome.busiest_hour_local_share, 1)});
    }
    std::cout << t << '\n';
}

void bm_capacity_point(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_with_rate_factor(0.55));
    }
}
BENCHMARK(bm_capacity_point)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
