// Ablation — content replication degree vs non-preferred accesses. The
// paper attributes the "downloaded exactly once from a non-preferred DC"
// mass to sparse content missing at the preferred data center; this sweep
// shows how wider replication removes those redirects.

#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

struct ReplicationOutcome {
    double non_preferred_flows = 0.0;  // EU1-ADSL fraction
    std::uint64_t miss_redirects = 0;  // player-observed cache misses
    std::size_t once_redirected_videos = 0;
};

ReplicationOutcome run_with_replication(double fraction) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = 0.02;
    cfg.replicate_fraction = fraction;
    const auto run = study::run_study(cfg);
    const auto idx = run.vp_index("EU1-ADSL");
    ReplicationOutcome out;
    out.non_preferred_flows =
        analysis::non_preferred_share(run.traces.datasets[idx], run.maps[idx],
                                      run.preferred[idx])
            .flow_fraction;
    for (const auto& stats : run.traces.player_stats) {
        out.miss_redirects += stats.redirects_miss;
    }
    const auto cdf =
        analysis::fold_records(run.traces.datasets[idx], run.maps[idx],
                               analysis::IncrementalVideoRedirects(run.preferred[idx]))
            .counts_cdf();
    if (!cdf.empty()) {
        out.once_redirected_videos = static_cast<std::size_t>(
            cdf.fraction_at_or_below(1.0) * static_cast<double>(cdf.size()));
    }
    return out;
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: replication degree vs non-preferred accesses",
        "sparser replication -> more first-access misses at the preferred "
        "data center -> more one-off non-preferred downloads (the Fig. 13 "
        "mass at exactly 1)");
    analysis::AsciiTable t({"replicated catalog fraction", "EU1-ADSL non-pref flow %",
                            "cache-miss redirects (all VPs)",
                            "videos redirected exactly once"});
    for (const double f : {0.50, 0.70, 0.85, 0.95, 0.999}) {
        const auto o = run_with_replication(f);
        t.add_row({analysis::fmt(f, 3), analysis::fmt_pct(o.non_preferred_flows, 1),
                   std::to_string(o.miss_redirects),
                   std::to_string(o.once_redirected_videos)});
    }
    std::cout << t << '\n';
}

void bm_replication_point(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_with_replication(0.85));
    }
}
BENCHMARK(bm_replication_point)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
