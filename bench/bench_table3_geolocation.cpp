// Table III — Google servers per continent for each dataset, via CBG
// geolocation of every server IP observed in the trace (one CBG run per
// data center, shared by its /24s, as the clustering invariant allows).
// Also reports the number of city-level data-center clusters found (paper:
// 33 across all datasets).

#include <set>

#include "analysis/geo_analysis.hpp"
#include "bench_common.hpp"
#include "geoloc/cbg.hpp"
#include "study/dc_map_builder.hpp"
#include "study/report.hpp"

namespace {

using namespace ytcdn;

geoloc::CbgLocator& shared_locator() {
    static geoloc::CbgLocator locator = [] {
        const auto& run = bench::shared_run();
        geoloc::CbgLocator loc(run.deployment->rtt(), bench::shared_landmarks(), {},
                               run.config.seed ^ 0xCB6);
        loc.calibrate();
        return loc;
    }();
    return locator;
}

void print_reproduction() {
    bench::print_banner(
        "Table III: Google servers per continent on each dataset (CBG)",
        "US-Campus 1464/112/84 (NA/EU/Others); EU datasets are Europe-heavy; "
        "every dataset sees at least 10% of servers on another continent; 33 "
        "data centers total (13 US, 14 EU, 6 others)");

    const auto& run = bench::shared_run();
    auto& locator = shared_locator();

    const auto located =
        study::locate_scope_dcs(*run.deployment, run.traces.datasets, locator);
    std::vector<analysis::ContinentCounts> counts;
    std::set<std::string> all_cities;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto mapping =
            study::cbg_dc_map(*run.deployment, run.traces.datasets[i], located,
                              run.deployment->vantage(i), run.deployment->local_as(i));
        counts.push_back(analysis::servers_per_continent(mapping.located));
        for (const auto& cluster : mapping.clusters) all_cities.insert(cluster.city_name);
    }
    std::cout << study::make_table3(run, counts) << '\n';
    std::cout << "Distinct data-center cities across all datasets: "
              << all_cities.size() << "   # paper: 33\n\n";
}

void bm_cbg_locate_one_server(benchmark::State& state) {
    const auto& run = bench::shared_run();
    auto& locator = shared_locator();
    const auto& dc = run.deployment->cdn().dc(run.deployment->dc_by_city("Milan"));
    for (auto _ : state) {
        benchmark::DoNotOptimize(locator.locate(dc.site));
    }
}
BENCHMARK(bm_cbg_locate_one_server)->Unit(benchmark::kMillisecond);

void bm_cbg_calibration(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        geoloc::CbgLocator loc(run.deployment->rtt(), bench::shared_landmarks(), {},
                               run.config.seed);
        loc.calibrate();
        benchmark::DoNotOptimize(loc.bestline(0));
    }
}
BENCHMARK(bm_cbg_calibration)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
