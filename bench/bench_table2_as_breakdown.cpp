// Table II — percentage of distinct servers and of bytes received per AS
// group (Google 15169, YouTube-EU 43515, the vantage point's own AS,
// others).

#include "analysis/as_analysis.hpp"
#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_as_breakdown(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& ds = run.traces.datasets[static_cast<std::size_t>(state.range(0))];
    const auto local = run.deployment->local_as(static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(
                ds, analysis::IncrementalAsBreakdown(run.deployment->whois(), local))
                .row(ds.name));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_as_breakdown)->Arg(0)->Arg(4)->Unit(benchmark::kMillisecond);

void bm_whois_lookup(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto& records = run.traces.datasets[0].records;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            run.deployment->whois().asn_of(records[i % records.size()].server_ip));
        ++i;
    }
}
BENCHMARK(bm_whois_lookup);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
