// Ablation — DNS answer TTL vs adaptive load balancing. YouTube's 2010 DNS
// used very short TTLs precisely so the EU2-style token-bucket balancing
// could steer load per request; this sweep shows how client-side caching
// of DNS answers degrades that control: the local data center's peak-hour
// protection erodes as stale answers keep hitting it.

#include "analysis/streaming.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/session.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "study/dc_map_builder.hpp"
#include "study/trace_driver.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ytcdn;

struct TtlOutcome {
    double cache_hit_rate = 0.0;
    double local_flow_share = 0.0;
    double peak_hour_local = 0.0;
};

TtlOutcome run_with_ttl(double ttl_s) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = 0.02;
    study::StudyDeployment deployment(cfg);

    workload::Player::Config player_cfg;
    player_cfg.dns_ttl_s = ttl_s;
    study::TraceDriver driver(deployment, player_cfg);
    const auto traces = driver.run(util::shared_pool());

    // EU2 view.
    std::size_t idx = 0;
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        if (traces.datasets[i].name == "EU2") idx = i;
    }
    const auto map = study::ground_truth_dc_map(deployment, deployment.vantage(idx));
    const int preferred = analysis::preferred_dc(traces.datasets[idx], map);

    TtlOutcome out;
    const auto& stats = traces.player_stats[idx];
    out.cache_hit_rate = stats.sessions == 0
                             ? 0.0
                             : static_cast<double>(stats.dns_cache_hits) /
                                   static_cast<double>(stats.sessions);
    out.local_flow_share =
        1.0 -
        analysis::non_preferred_share(traces.datasets[idx], map, preferred).flow_fraction;
    const auto& ds = traces.datasets[idx];
    const auto series =
        analysis::fold_records(ds, map,
                               analysis::IncrementalHourlyLoad(preferred, ds.name))
            .preferred_series();
    double peak = 0.0;
    for (std::size_t h = 0; h < series.fraction_preferred.points.size(); ++h) {
        if (series.flows_per_hour.points[h].second > peak) {
            peak = series.flows_per_hour.points[h].second;
            out.peak_hour_local = series.fraction_preferred.points[h].second;
        }
    }
    return out;
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: client DNS TTL vs EU2 adaptive load balancing",
        "short TTLs give the authoritative DNS per-request control (the "
        "paper's observed behaviour); client-side caching lets off-peak "
        "'local' answers leak into the busy hours");
    analysis::AsciiTable t({"DNS TTL [s]", "cache hit rate %", "EU2 local flow %",
                            "peak-hour local %"});
    for (const double ttl : {0.0, 60.0, 600.0, 3600.0, 4.0 * 3600.0}) {
        const auto o = run_with_ttl(ttl);
        t.add_row({analysis::fmt(ttl, 0), analysis::fmt_pct(o.cache_hit_rate, 1),
                   analysis::fmt_pct(o.local_flow_share, 1),
                   analysis::fmt_pct(o.peak_hour_local, 1)});
    }
    std::cout << t << '\n';
}

void bm_ttl_point(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_with_ttl(600.0));
    }
}
BENCHMARK(bm_ttl_point)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
