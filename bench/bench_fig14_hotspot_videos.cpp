// Fig. 14 — hourly load for the four videos with the most non-preferred
// accesses in EU1-ADSL. Each is a front-page "video of the day": a one-day
// popularity spike during which redirections to non-preferred data centers
// concentrate.

#include "analysis/redirect_analysis.hpp"
#include "analysis/series.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 14: top-4 most-redirected videos over time (EU1-ADSL)",
        "each video is a one-day front-page promotion; accesses spike for "
        "~24 h and the non-preferred accesses cluster inside the spike");
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    const auto& ds = run.traces.datasets[idx];
    const auto top =
        analysis::top_redirected_videos(ds, run.dc_columns[idx], run.preferred[idx], 4);

    std::vector<analysis::Series> series;
    int video_no = 1;
    for (const auto video : top) {
        const auto load = analysis::video_hourly_load(ds, run.dc_columns[idx],
                                                      run.preferred[idx], video);
        // Peak hour and the promoted day it falls on.
        double peak = 0.0;
        double peak_hour = 0.0;
        double total = 0.0, np_total = 0.0;
        for (const auto& [h, v] : load.all.points) {
            total += v;
            if (v > peak) {
                peak = v;
                peak_hour = h;
            }
        }
        for (const auto& [h, v] : load.non_preferred.points) np_total += v;
        std::cout << "video" << video_no << " (" << video.to_string() << "): "
                  << total << " requests, peak " << peak << "/h at hour " << peak_hour
                  << " (day " << static_cast<int>(peak_hour / 24.0) << "), "
                  << np_total << " non-preferred\n";
        series.push_back(load.all);
        series.back().name = "video" + std::to_string(video_no) + " all";
        series.push_back(load.non_preferred);
        series.back().name = "video" + std::to_string(video_no) + " non-preferred";
        ++video_no;
    }
    // Cross-check against the deployment's promotion schedule.
    std::cout << "# ground truth: promotions scheduled on days 1-6 of the trace\n\n";
    analysis::write_series(std::cout, series, 0, 0);
}

void bm_top_redirected(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("EU1-ADSL");
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::top_redirected_videos(
            run.traces.datasets[idx], run.dc_columns[idx], run.preferred[idx], 4));
    }
}
BENCHMARK(bm_top_redirected)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
