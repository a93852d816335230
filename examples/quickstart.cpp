// Quickstart: build the study world, capture a (scaled-down) week of
// YouTube traffic at all five vantage points, and answer the paper's
// headline questions — who serves the bytes, from where, and how often the
// preferred data center is bypassed.
//
// Usage: quickstart [scale]   (default scale 0.05)

#include <cstdlib>
#include <iostream>

#include "analysis/preferred_dc.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"

int main(int argc, char** argv) {
    using namespace ytcdn;

    study::StudyConfig config;
    config.scale = argc > 1 ? std::atof(argv[1]) : 0.05;
    if (config.scale <= 0.0) {
        std::cerr << "scale must be > 0\n";
        return 1;
    }

    std::cout << "Simulating one week at scale " << config.scale
              << " (paper magnitudes = 1.0)...\n\n";
    util::ThreadPool pool(config.effective_threads());
    const study::StudyRun run = study::run_study(config, pool);
    // One pass per vantage point feeds every table and figure below.
    const auto folds = study::fold_study(run, pool).vantage;

    std::cout << "== Table I: traffic summary ==\n"
              << study::make_table1(folds) << '\n';

    std::cout << "== Table II: AS breakdown ==\n" << study::make_table2(folds) << '\n';

    std::cout << "== Server selection ==\n";
    analysis::AsciiTable sel({"Dataset", "Preferred DC", "RTT[ms]", "pref byte%",
                              "non-pref flow%", "1-flow sess%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        const auto& map = run.maps[i];
        const int pref = run.preferred[i];
        const auto share = analysis::non_preferred_share(ds, map, pref);
        const auto patterns = folds[i].sessions.patterns();
        sel.add_row({ds.name, map.info(pref).name,
                     analysis::fmt(map.info(pref).rtt_ms, 1),
                     analysis::fmt_pct(1.0 - share.byte_fraction, 1),
                     analysis::fmt_pct(share.flow_fraction, 1),
                     analysis::fmt_pct(patterns.single_flow, 1)});
    }
    std::cout << sel << '\n';

    std::cout << "== Why non-preferred accesses happen (Section VII) ==\n";
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const double corr = folds[i].hourly.correlation();
        std::cout << run.traces.datasets[i].name
                  << ": corr(hourly load, non-preferred fraction) = "
                  << analysis::fmt(corr, 2)
                  << (corr > 0.7 ? "  <- adaptive DNS load balancing\n" : "\n");
    }

    std::cout << "\nPaper expectations: preferred DC carries >85% of bytes except EU2;\n"
                 "5-15% of flows are non-preferred (EU2: >40%); 72-81% of sessions\n"
                 "have a single flow; only EU2's non-preferred fraction tracks load.\n";
    return 0;
}
