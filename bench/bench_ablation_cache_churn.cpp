// Ablation — pulled-content retention. The paper observes that after the
// first (redirected) access to an unpopular video, "subsequent accesses are
// typically handled from the preferred data center": pulled content stays
// cached at least for the study week. This sweep bounds the per-DC pulled
// store and shows how eviction churn re-creates redirections for repeat
// accesses — quantifying how much cache the one-week behaviour implies.

#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

struct ChurnOutcome {
    std::uint64_t miss_redirects = 0;       // across all vantage points
    double once_share = 0.0;                // Fig 13 mass at exactly 1
    std::uint64_t evictions = 0;
    double non_pref_flows = 0.0;            // EU1-ADSL
};

ChurnOutcome run_with_bound(std::size_t max_pulled) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = 0.02;
    cfg.max_pulled_per_dc = max_pulled;
    const auto run = study::run_study(cfg);

    ChurnOutcome out;
    for (const auto& stats : run.traces.player_stats) {
        out.miss_redirects += stats.redirects_miss;
    }
    for (const auto& dc : run.deployment->cdn().data_centers()) {
        if (!cdn::in_analysis_scope(dc.infra)) continue;
        out.evictions += run.deployment->cdn().cache(dc.id).evictions();
    }
    const auto idx = run.vp_index("EU1-ADSL");
    const auto cdf =
        analysis::fold_records(run.traces.datasets[idx], run.maps[idx],
                               analysis::IncrementalVideoRedirects(run.preferred[idx]))
            .counts_cdf();
    if (!cdf.empty()) out.once_share = cdf.fraction_at_or_below(1.0);
    out.non_pref_flows =
        analysis::non_preferred_share(run.traces.datasets[idx], run.maps[idx],
                                      run.preferred[idx])
            .flow_fraction;
    return out;
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: pulled-content retention vs repeat redirections",
        "the paper's week shows only FIRST accesses redirected — consistent "
        "with pulls being retained; bounding the pulled store re-redirects "
        "repeat accesses and erodes the Fig 13 'exactly once' mass");
    analysis::AsciiTable t({"max pulled/DC", "cache-miss redirects", "evictions",
                            "redirected-once share %", "EU1-ADSL non-pref flow %"});
    for (const std::size_t bound : {std::size_t{50}, std::size_t{200},
                                    std::size_t{1000}, std::size_t{0}}) {
        const auto o = run_with_bound(bound);
        t.add_row({bound == 0 ? "unbounded" : std::to_string(bound),
                   std::to_string(o.miss_redirects), std::to_string(o.evictions),
                   analysis::fmt_pct(o.once_share, 1),
                   analysis::fmt_pct(o.non_pref_flows, 1)});
    }
    std::cout << t << '\n';
}

void bm_churn_point(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_with_bound(200));
    }
}
BENCHMARK(bm_churn_point)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
