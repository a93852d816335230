#include "bench_common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

#include "geo/city.hpp"
#include "study/checkpoint.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace ytcdn::bench {

double bench_scale() {
    if (const char* env = std::getenv("YTCDN_BENCH_SCALE")) {
        const double v = std::atof(env);
        if (v > 0.0) return v;
    }
    return 0.15;
}

study::StudyConfig bench_config() {
    study::StudyConfig cfg;
    cfg.scale = bench_scale();
    return cfg;
}

namespace {

bool snapshot_enabled() {
    const char* env = std::getenv("YTCDN_BENCH_SNAPSHOT");
    return env == nullptr || std::string_view(env) != "0";
}

std::filesystem::path snapshot_dir() {
    if (const char* env = std::getenv("YTCDN_BENCH_CACHE")) return env;
    return "build/bench/.cache";
}

/// Simulating the week dominates every binary's start-up, and the whole
/// suite runs the identical simulation ~30 times. The first binary writes
/// the week as a study run persists it, into one directory per
/// configuration (`trace-<seed>-<config_fingerprint>/`, both hex): each
/// vantage point's YFL2 log `<vp>.yfl`, then `simulate.yck`, the
/// Simulate-stage YCK1 frame keyed to config_fingerprint that names the
/// logs by size and CRC. The rest load it in milliseconds and re-derive
/// the maps, which is bit-identical to simulating (Determinism tests hold
/// assemble == run). A damaged frame is quarantined, and a damaged or
/// missing log rejects the cache; either way the week is re-simulated. Set
/// YTCDN_BENCH_SNAPSHOT=0 to force simulation. Progress goes to stderr —
/// stdout carries the paper artifacts.
study::StudyRun build_shared_run() {
    const study::StudyConfig cfg = bench_config();
    util::ThreadPool pool(cfg.effective_threads());
    if (!snapshot_enabled()) return study::run_study(cfg, pool);

    const std::uint64_t key = study::config_fingerprint(cfg);
    std::ostringstream name;
    name << "trace-" << std::hex << cfg.seed << "-" << key;
    const std::filesystem::path dir = snapshot_dir() / name.str();
    const std::filesystem::path frame = dir / "simulate.yck";
    std::string warning;
    if (auto payload = study::load_or_quarantine_checkpoint(
            frame, key, study::Stage::Simulate, &warning)) {
        auto traces = study::decode_traces(*payload, dir);
        if (traces) {
            std::cerr << "# bench: loaded trace cache " << dir << "\n";
            return study::assemble_study_run(cfg, std::move(traces).value(), pool);
        }
        warning = "warning: trace cache " + dir.string() + " rejected (" +
                  traces.error().what() + "); regenerating";
    }
    if (!warning.empty()) std::cerr << "# bench: " << warning << "\n";
    study::StudyRun run = study::run_study(cfg, pool);
    const study::EncodedWeek week = study::encode_traces(run.traces);
    bool written = true;
    for (std::size_t i = 0; written && i < week.logs.size(); ++i) {
        written = util::io::write_file_atomic(
                      study::log_path(dir, run.traces.datasets[i].name),
                      week.logs[i])
                      .ok();
    }
    // The frame goes last: it never names a log that is not on disk.
    if (written &&
        study::write_checkpoint(frame, key, study::Stage::Simulate, week.payload)) {
        std::cerr << "# bench: wrote trace cache " << dir << "\n";
    }
    return run;
}

}  // namespace

namespace {

/// Whether any bench stage touched shared_run(); the counter dump derives
/// per-run numbers only for binaries that actually built it.
bool g_shared_run_built = false;

}  // namespace

const study::StudyRun& shared_run() {
    static const study::StudyRun run = build_shared_run();
    g_shared_run_built = true;
    return run;
}

const std::vector<geoloc::Landmark>& shared_landmarks() {
    static const std::vector<geoloc::Landmark> landmarks =
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(bench_config().seed ^ 0x9Bull));
    return landmarks;
}

void dump_metrics_snapshot() {
    const char* out = std::getenv("YTCDN_METRICS_OUT");
    if (out == nullptr || *out == '\0') return;

    std::ostringstream os;
    os << "{\n";
    bool first = true;
    const auto emit = [&](const std::string& name, const std::string& value) {
        if (!first) os << ",\n";
        first = false;
        os << "  \"" << name << "\": " << value;
    };
    const auto emit_u64 = [&](const std::string& name, std::uint64_t v) {
        emit(name, std::to_string(v));
    };
    const auto emit_ratio = [&](const std::string& name, double num, double den) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", den > 0.0 ? num / den : 0.0);
        emit(name, buf);
    };

    // Counters derived from the shared run's traces: identical whether the
    // week was simulated or loaded from a snapshot, so warm-cache bench runs
    // report the same numbers as cold ones.
    if (g_shared_run_built) {
        const auto& traces = shared_run().traces;
        std::uint64_t sessions = 0, video_flows = 0, control_flows = 0;
        std::uint64_t cache_hits = 0, redirects = 0, failovers = 0, failures = 0;
        std::uint64_t flows_observed = 0;
        for (const auto& s : traces.player_stats) {
            sessions += s.sessions;
            video_flows += s.video_flows;
            control_flows += s.control_flows;
            cache_hits += s.dns_cache_hits;
            redirects += s.redirects_miss + s.redirects_overload;
            failovers += s.failovers;
            failures += s.failures.total();
        }
        for (const std::uint64_t f : traces.flows_observed) flows_observed += f;
        emit_u64("run.sessions", sessions);
        emit_u64("run.video_flows", video_flows);
        emit_u64("run.control_flows", control_flows);
        emit_u64("run.flows_observed", flows_observed);
        emit_u64("run.events_processed", traces.events_processed);
        emit_u64("run.failovers", failovers);
        emit_u64("run.failures", failures);
        emit_ratio("run.dns_cache_hit_rate", static_cast<double>(cache_hits),
                   static_cast<double>(sessions));
        emit_ratio("run.redirects_per_session", static_cast<double>(redirects),
                   static_cast<double>(sessions));
    }

    // Live process-wide registry (pool batch counts, CBG probe counters on
    // simulating binaries, ...). Histograms contribute their sample count.
    for (const auto& entry : util::metrics::Registry::global().snapshot().entries) {
        emit_u64(entry.name,
                 entry.kind == util::metrics::SnapshotEntry::Kind::Histogram
                     ? entry.count
                     : entry.value);
    }

    // This process's own high-water mark. run_benches.sh also records the
    // wrapper's getrusage(RUSAGE_CHILDREN) figure, but CHILDREN is a
    // max-over-all-waited-children and stops meaning "this binary" as soon
    // as a run forks helpers — the bounded-memory claims (bench_scale_10m)
    // gate on RUSAGE_SELF, read here inside the measured process.
    struct rusage self {};
    if (getrusage(RUSAGE_SELF, &self) == 0) {
        emit_u64("proc.peak_rss_self_kib",
                 static_cast<std::uint64_t>(self.ru_maxrss));
    }
    os << "\n}\n";

    if (!util::io::write_file_atomic(out, os.str())) {
        std::cerr << "# bench: cannot write metrics to " << out << "\n";
    }
}

void print_banner(const char* artifact, const char* claim) {
    std::cout << "=====================================================================\n"
              << artifact << "  (scale " << bench_scale() << " vs paper)\n"
              << "# paper: " << claim << "\n"
              << "=====================================================================\n";
}

}  // namespace ytcdn::bench
