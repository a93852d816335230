// Fig. 15 — average and maximum number of requests per server in the
// EU1-ADSL preferred data center over time. URL hashing concentrates each
// video on one server, so a promoted video drives one server's load far
// above the average: the hot spots that trigger app-layer redirection.

#include "analysis/redirect_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 15: avg vs max per-server requests, EU1-ADSL preferred DC",
        "the max repeatedly spikes far above the average (e.g. avg ~50 vs "
        "max >650 at hour 115); the peaking servers are those serving the "
        "Fig. 14 videos");
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto load = analysis::preferred_dc_server_load(run.traces.datasets[idx],
                                                         run.dc_columns[idx],
                                                         run.preferred[idx]);
    double worst_ratio = 0.0;
    double worst_hour = 0.0;
    for (std::size_t h = 0; h < load.avg.points.size(); ++h) {
        const double avg = load.avg.points[h].second;
        const double max = load.max.points[h].second;
        if (avg > 0.3 && max / avg > worst_ratio) {
            worst_ratio = max / avg;
            worst_hour = load.avg.points[h].first;
        }
    }
    std::cout << "Worst hour " << worst_hour << ": max/avg per-server load ratio "
              << analysis::fmt(worst_ratio, 1)
              << "x   # paper: >13x during the video-of-the-day spike\n\n";
    analysis::write_series(std::cout, {load.avg, load.max}, 0, 2);
}

void bm_server_load(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::preferred_dc_server_load(
            run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx]));
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[idx].records.size()));
}
BENCHMARK(bm_server_load)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
