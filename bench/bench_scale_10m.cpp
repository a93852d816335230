// Scale bench — the out-of-core claim (DESIGN.md §16). Drives
// study::run_scale_study: the trace driver spills each vantage point's
// flows to YFL2 on disk, then the incremental §VII modules stream the
// spills back in O(block) memory. The deliverable is two numbers in
// BENCH_results.json's internal_counters: scale.sessions_per_sec
// (throughput) and scale.peak_rss_self_kib (bounded memory). The binary
// *asserts* the memory bound — exceeding the ceiling is exit 1, not a
// number in a report someone has to notice.
//
// Workload knobs (all env):
//   YTCDN_SCALE_SESSIONS        target session count (default 100000 so
//                               the routine suite stays fast; CI's
//                               scale-smoke runs 1000000, the acceptance
//                               run 10000000)
//   YTCDN_SCALE_RSS_CEILING_KIB peak-RSS ceiling for getrusage(RUSAGE_SELF)
//                               (default 4 GiB — the 10M-session budget)
//
// Deliberately NOT built on bench::shared_run(): the shared run holds a
// whole week of records in memory, which is exactly what this binary
// exists to avoid, and its run.sessions counter would make bench_compare's
// same-workload check compare this binary's session count against the
// other benches'.

#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "analysis/table.hpp"
#include "bench_common.hpp"
#include "study/scale_run.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace {

using namespace ytcdn;

// Sessions generated per unit of StudyConfig::scale over the simulated
// week (measured once at scale 1.0, seed-independent to within noise of
// the per-VP Poisson arrivals). Turns "N sessions" into the scale factor
// the generators understand.
constexpr double kSessionsPerUnitScale = 1'947'062.0;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtoull(v, nullptr, 10);
}

std::uint64_t target_sessions() {
    return env_u64("YTCDN_SCALE_SESSIONS", 100'000);
}

std::uint64_t rss_ceiling_kib() {
    return env_u64("YTCDN_SCALE_RSS_CEILING_KIB", 4ull << 20);  // 4 GiB
}

std::uint64_t peak_rss_self_kib() {
    struct rusage self {};
    if (getrusage(RUSAGE_SELF, &self) != 0) return 0;
    return static_cast<std::uint64_t>(self.ru_maxrss);
}

// The bounded-memory verdict; main() turns false into exit 1 *after* the
// metrics snapshot is written, so a failing run still reports its numbers.
bool g_rss_ok = true;

struct ScaleBenchMetrics {
    util::metrics::Gauge sessions = util::metrics::gauge("scale.sessions");
    util::metrics::Gauge flows = util::metrics::gauge("scale.flows");
    util::metrics::Gauge events = util::metrics::gauge("scale.events");
    util::metrics::Gauge rate = util::metrics::gauge("scale.sessions_per_sec");
    util::metrics::Gauge rss = util::metrics::gauge("scale.peak_rss_self_kib");
    util::metrics::Gauge ceiling = util::metrics::gauge("scale.rss_ceiling_kib");
};

ScaleBenchMetrics& metrics() {
    static ScaleBenchMetrics m;
    return m;
}

study::ScaleRunConfig scale_config() {
    study::ScaleRunConfig cfg;
    cfg.study = bench::bench_config();
    cfg.study.scale =
        static_cast<double>(target_sessions()) / kSessionsPerUnitScale;
    cfg.spill_dir = std::filesystem::temp_directory_path() /
                    ("ytcdn_bench_scale_" + std::to_string(::getpid()));
    return cfg;
}

void run_once(benchmark::State& state) {
    const auto cfg = scale_config();
    util::ThreadPool pool(util::default_thread_count());

    const auto start = std::chrono::steady_clock::now();
    auto summary = study::run_scale_study(cfg, pool);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::error_code ignore;
    std::filesystem::remove_all(cfg.spill_dir, ignore);
    if (!summary.ok()) {
        state.SkipWithError(summary.error().what());
        g_rss_ok = false;
        return;
    }

    const auto& s = summary.value();
    const std::uint64_t rss_kib = peak_rss_self_kib();
    const std::uint64_t ceiling = rss_ceiling_kib();
    metrics().sessions.update_max(s.sessions);
    metrics().flows.update_max(s.flows);
    metrics().events.update_max(s.events);
    if (secs > 0.0) {
        metrics().rate.update_max(
            static_cast<std::uint64_t>(static_cast<double>(s.sessions) / secs));
    }
    metrics().rss.update_max(rss_kib);
    metrics().ceiling.update_max(ceiling);

    state.counters["sessions"] = static_cast<double>(s.sessions);
    state.counters["sessions/s"] = benchmark::Counter(
        static_cast<double>(s.sessions), benchmark::Counter::kIsRate);
    state.counters["peak_rss_kib"] = static_cast<double>(rss_kib);

    if (rss_kib > ceiling) {
        g_rss_ok = false;
        state.SkipWithError(("peak RSS " + std::to_string(rss_kib) +
                             " KiB exceeds the bounded-memory ceiling " +
                             std::to_string(ceiling) + " KiB")
                                .c_str());
    }
}

void bm_scale_run(benchmark::State& state) {
    for (auto _ : state) {
        run_once(state);
    }
}
// One iteration: the run is minutes long at 10M sessions, and RSS is a
// process-lifetime high-water mark — repeating cannot lower it.
BENCHMARK(bm_scale_run)->Unit(benchmark::kMillisecond)->Iterations(1);

void print_reproduction() {
    bench::print_banner(
        "Scale: out-of-core study throughput and peak memory",
        "streamed two-pass analysis holds RSS flat in session count; "
        "10M sessions must fit in 4 GiB (DESIGN.md \xC2\xA7""16)");
    analysis::AsciiTable t({"target sessions", "scale factor",
                            "RSS ceiling [KiB]"});
    const auto sessions = target_sessions();
    t.add_row({std::to_string(sessions),
               analysis::fmt(static_cast<double>(sessions) /
                                 kSessionsPerUnitScale,
                             4),
               std::to_string(rss_ceiling_kib())});
    std::cout << t << '\n';
}

}  // namespace

// Not YTCDN_BENCH_MAIN: the exit code must carry the bounded-memory
// verdict, and the metrics snapshot must be written first either way.
int main(int argc, char** argv) {
    print_reproduction();
    ::benchmark::Initialize(&argc, argv);
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    ytcdn::bench::dump_metrics_snapshot();
    if (!g_rss_ok) {
        std::cerr << "bench_scale_10m: bounded-memory assertion failed (see "
                     "benchmark error above)\n";
        return 1;
    }
    return 0;
}
