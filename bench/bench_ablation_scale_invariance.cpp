// Ablation — scale invariance. The reproduction's central methodological
// claim is that shapes (shares, CDFs, correlations) do not depend on the
// trace-volume scale factor, only tail lengths do. This bench sweeps the
// scale and prints the headline shape metrics side by side; if any drifts
// systematically with scale, conclusions drawn at bench scale would not
// transfer to paper scale.

#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

struct ShapeMetrics {
    double single_flow = 0.0;       // US-Campus single-flow session share
    double preferred_bytes = 0.0;   // US-Campus preferred-DC byte share
    double eu2_local_bytes = 0.0;   // EU2 local byte share
    double eu2_corr = 0.0;          // EU2 load vs non-preferred correlation
};

ShapeMetrics measure(double scale) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = scale;
    const auto run = study::run_study(cfg);

    ShapeMetrics m;
    const auto us = run.vp_index("US-Campus");
    auto sessions = analysis::fold_records(run.traces.datasets[us], run.maps[us],
                                           analysis::SessionFold(run.preferred[us]));
    sessions.finish();
    m.single_flow = sessions.flows_cdf()[0];
    m.preferred_bytes =
        1.0 - analysis::non_preferred_share(run.traces.datasets[us], run.maps[us],
                                            run.preferred[us])
                  .byte_fraction;
    const auto eu2 = run.vp_index("EU2");
    m.eu2_local_bytes =
        1.0 - analysis::non_preferred_share(run.traces.datasets[eu2], run.maps[eu2],
                                            run.preferred[eu2])
                  .byte_fraction;
    const auto& eu2_ds = run.traces.datasets[eu2];
    m.eu2_corr = analysis::fold_records(
                     eu2_ds, run.maps[eu2],
                     analysis::IncrementalHourlyLoad(run.preferred[eu2], eu2_ds.name))
                     .correlation();
    return m;
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: shape metrics vs trace-volume scale",
        "shares, session structure and the EU2 load correlation must be "
        "flat in scale; only tail lengths (e.g. Fig 13 maxima) grow");
    analysis::AsciiTable t({"scale", "US 1-flow sess %", "US preferred byte %",
                            "EU2 local byte %", "EU2 corr(load, nonpref)"});
    for (const double s : {0.01, 0.03, 0.08, 0.15}) {
        const auto m = measure(s);
        t.add_row({analysis::fmt(s, 2), analysis::fmt_pct(m.single_flow, 1),
                   analysis::fmt_pct(m.preferred_bytes, 1),
                   analysis::fmt_pct(m.eu2_local_bytes, 1),
                   analysis::fmt(m.eu2_corr, 2)});
    }
    std::cout << t << '\n';
}

void bm_scale_point(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(measure(0.03));
    }
}
BENCHMARK(bm_scale_point)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
