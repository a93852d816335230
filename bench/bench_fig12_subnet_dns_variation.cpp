// Fig. 12 — per-internal-subnet shares of all video flows vs flows to
// non-preferred data centers for US-Campus. Net-3's local DNS resolvers are
// mapped to a different preferred data center, so it accounts for ~4% of
// the flows but almost half the non-preferred accesses.

#include "analysis/streaming.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void bm_subnet_breakdown(benchmark::State& state) {
    const auto& run = bench::shared_run();
    const auto idx = run.vp_index("US-Campus");
    std::vector<analysis::NamedSubnet> subnets;
    for (const auto& s : run.deployment->vantage(idx).subnets) {
        subnets.push_back({s.name, s.prefix});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            analysis::fold_records(
                run.traces.datasets[idx], run.maps[idx],
                analysis::IncrementalSubnetBreakdown(run.preferred[idx], subnets))
                .shares());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) *
        static_cast<int64_t>(run.traces.datasets[idx].records.size()));
}
BENCHMARK(bm_subnet_breakdown)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(nullptr)
