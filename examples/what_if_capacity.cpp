// What-if analysis for ISP capacity planning (the use case the paper's
// introduction motivates): how would EU2's traffic split between the in-ISP
// cache and external Google data centers change if (a) the cache's
// sustainable rate changed, or (b) demand grew?
//
// Usage: what_if_capacity [scale]   (default 0.02)

#include <cstdlib>
#include <iostream>

#include "analysis/incremental.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "study/study_run.hpp"

namespace {

struct Outcome {
    double local_bytes = 0.0;
    double peak_hour_local = 1.0;
    double external_gb = 0.0;  // transit the ISP pays for
};

Outcome evaluate(double scale, double rate_factor, double demand_multiplier) {
    using namespace ytcdn;
    study::StudyConfig cfg;
    cfg.scale = scale * demand_multiplier;
    cfg.eu2_local_rate_factor = rate_factor / demand_multiplier;
    const auto run = study::run_study(cfg);
    const auto idx = run.vp_index("EU2");
    const auto& ds = run.traces.datasets[idx];
    const auto share = analysis::non_preferred_share(ds, run.maps[idx],
                                                     run.preferred[idx]);
    const analysis::IncrementalHourlyLoad hourly(run.preferred[idx], ds.name);
    const auto series =
        analysis::fold_records(ds, run.maps[idx], hourly).preferred_series();
    Outcome out;
    out.local_bytes = 1.0 - share.byte_fraction;
    double peak = 0.0;
    for (std::size_t h = 0; h < series.fraction_preferred.points.size(); ++h) {
        if (series.flows_per_hour.points[h].second > peak) {
            peak = series.flows_per_hour.points[h].second;
            out.peak_hour_local = series.fraction_preferred.points[h].second;
        }
    }
    out.external_gb =
        analysis::fold_records(ds, analysis::IncrementalSummary{}).volume_gb() *
        share.byte_fraction;
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace ytcdn;
    const double scale = argc > 1 ? std::atof(argv[1]) : 0.02;

    std::cout << "EU2 what-if: in-ISP cache rate factor sweep (current ~0.62)\n\n";
    analysis::AsciiTable t({"cache rate factor", "demand", "local byte %",
                            "peak-hour local %", "external transit [GB]"});
    for (const double f : {0.4, 0.62, 1.0, 1.6}) {
        const auto o = evaluate(scale, f, 1.0);
        t.add_row({analysis::fmt(f, 2), "1.0x", analysis::fmt_pct(o.local_bytes, 1),
                   analysis::fmt_pct(o.peak_hour_local, 1),
                   analysis::fmt(o.external_gb, 1)});
    }
    // Demand growth with today's cache: what the ISP should expect.
    for (const double g : {1.5, 2.0}) {
        const auto o = evaluate(scale, 0.62, g);
        t.add_row({"0.62", analysis::fmt(g, 1) + "x",
                   analysis::fmt_pct(o.local_bytes, 1),
                   analysis::fmt_pct(o.peak_hour_local, 1),
                   analysis::fmt(o.external_gb, 1)});
    }
    std::cout << t << '\n';
    std::cout << "Reading: the in-ISP cache absorbs all off-peak demand at any\n"
                 "capacity; what the ISP buys with more capacity is the busy-hour\n"
                 "local share — and demand growth erodes it proportionally.\n";
    return 0;
}
