// Ablation — fault tolerance: what the paper's Fig. 9 view looks like when
// the preferred data center actually dies. A scripted outage takes the
// US-Campus preferred site (Dallas) down mid-week; DNS-level failover plus
// the player's retry/failover machinery shifts the bytes to non-preferred
// data centers for the duration, and the traffic snaps back once the site
// recovers. The same run charts the session-failure breakdown the fault
// work added to the player.

#include "analysis/failure_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "sim/fault_injector.hpp"
#include "study/dc_map_builder.hpp"
#include "study/report.hpp"
#include "study/trace_driver.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ytcdn;

// Outage window: day 2.5 to day 4.5 of the one-week trace.
constexpr sim::SimTime kOutageStart = 2.5 * sim::kDay;
constexpr sim::SimTime kOutageLength = 2.0 * sim::kDay;

struct FaultOutcome {
    analysis::OutageByteShift shift;
    analysis::VantageFailureCounts us;
    analysis::Series timeline;
};

FaultOutcome run_one(bool with_outage) {
    study::StudyConfig cfg = bench::bench_config();
    cfg.scale = 0.02;
    if (with_outage) {
        // Dallas is the ground-truth preferred data center of US-Campus in
        // the study deployment (both resolvers rank it first).
        cfg.fault_schedule =
            sim::FaultSchedule::dc_outage("Dallas", kOutageStart, kOutageLength);
    }
    study::StudyDeployment deployment(cfg);
    study::TraceDriver driver(deployment);
    const auto traces = driver.run(util::shared_pool());

    std::size_t idx = 0;
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        if (traces.datasets[i].name == "US-Campus") idx = i;
    }
    const auto map = study::ground_truth_dc_map(deployment, deployment.vantage(idx));
    // The preferred DC must come from the healthy traffic mix: during a
    // two-day outage the byte ranking itself flips, which is exactly the
    // effect being measured. Dallas stays "preferred" by ground truth.
    int preferred = -1;
    for (int d = 0; d < static_cast<int>(map.num_data_centers()); ++d) {
        if (map.info(d).name == "Dallas") preferred = d;
    }
    if (preferred < 0) preferred = analysis::preferred_dc(traces.datasets[idx], map);

    FaultOutcome out;
    out.shift = analysis::outage_byte_shift(traces.datasets[idx], map, preferred,
                                            kOutageStart, kOutageStart + kOutageLength);
    out.us = study::failure_counts_of(traces.datasets[idx].name,
                                      traces.player_stats[idx]);
    out.timeline =
        analysis::hourly_non_preferred_bytes(traces.datasets[idx], map, preferred);
    return out;
}

void print_reproduction() {
    bench::print_banner(
        "Ablation: preferred-DC outage (failure-mode analogue of Fig. 9)",
        "a scripted two-day Dallas outage mid-trace; US-Campus bytes shift "
        "to non-preferred data centers while the site is dark and recover "
        "after, with the player's failure-cause breakdown alongside");

    const FaultOutcome baseline = run_one(false);
    const FaultOutcome outage = run_one(true);

    analysis::AsciiTable shift({"run", "np-bytes% before", "np-bytes% during",
                                "np-bytes% after", "failed sessions", "failovers"});
    shift.add_row({"baseline", analysis::fmt_pct(baseline.shift.before, 1),
                   analysis::fmt_pct(baseline.shift.during, 1),
                   analysis::fmt_pct(baseline.shift.after, 1),
                   std::to_string(baseline.us.failed_total()),
                   std::to_string(baseline.us.failovers)});
    shift.add_row({"dallas-outage", analysis::fmt_pct(outage.shift.before, 1),
                   analysis::fmt_pct(outage.shift.during, 1),
                   analysis::fmt_pct(outage.shift.after, 1),
                   std::to_string(outage.us.failed_total()),
                   std::to_string(outage.us.failovers)});
    std::cout << shift << '\n';

    std::cout << analysis::failure_breakdown_table({baseline.us, outage.us}) << '\n';

    // Timeline: hourly non-preferred byte fraction through the outage.
    analysis::AsciiTable tl({"hour", "np-bytes% (outage run)"});
    for (const auto& [hour, frac] : outage.timeline.points) {
        const auto h = static_cast<int>(hour);
        if (h % 6 != 0) continue;  // a readable 6-hour sampling
        tl.add_row({std::to_string(h), analysis::fmt_pct(frac, 1)});
    }
    std::cout << tl << '\n';
}

void bm_outage_run(benchmark::State& state) {
    for (auto _ : state) {
        benchmark::DoNotOptimize(run_one(true));
    }
}
BENCHMARK(bm_outage_run)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
