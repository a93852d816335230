// Table III — Google servers per continent for each dataset, via CBG
// geolocation of every server IP observed in the trace (one CBG run per
// data center, shared by its /24s, as the clustering invariant allows).

#include "bench_common.hpp"
#include "geoloc/cbg.hpp"

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

YTCDN_BENCH_MAIN(nullptr)
