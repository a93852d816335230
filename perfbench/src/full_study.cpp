// full_study: the supervised pipeline `ytcdn study --out` runs
// (study::Supervisor): simulate in memory, write the capture logs, derive
// the maps, render every report artifact including Table III's CBG run, and
// write report.txt + artifacts/. The traced run reads the per-stage wall
// times the supervisor itself records.

#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "bench.hpp"
#include "capture/flow_log.hpp"
#include "study/checkpoint.hpp"
#include "study/supervisor.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace {

namespace yt = ytcdn;

constexpr double kScale = 0.05;
constexpr double kTinyScale = 0.01;

/// A rendered ASCII table: whitespace-split rows, the dashed rule dropped.
std::vector<std::vector<std::string>> read_table(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::vector<std::vector<std::string>> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '-') continue;
        std::istringstream fields(line);
        std::vector<std::string> row;
        for (std::string field; fields >> field;) row.push_back(field);
        rows.push_back(std::move(row));
    }
    return rows;
}

/// Column `column` of every data row, keyed by the row's first field.
std::map<std::string, double> table_column(const std::filesystem::path& path,
                                           const std::string& column) {
    const auto rows = read_table(path);
    std::map<std::string, double> out;
    if (rows.empty()) return out;
    std::size_t index = 0;
    while (index < rows[0].size() && rows[0][index] != column) ++index;
    for (std::size_t r = 1; r < rows.size(); ++r) {
        if (index < rows[r].size()) out[rows[r][0]] = std::stod(rows[r][index]);
    }
    return out;
}

/// DESIGN.md §5 shapes on a finished run directory: the preferred data
/// center carries more than 85% of the video bytes at every network but
/// EU2, and 72-81% of sessions (pooled over the networks) are single-flow.
void check_paper_shapes(const std::filesystem::path& run_dir,
                        const Deployment& setup, Result& result) {
    const auto& world = *setup.world;
    std::ostringstream shares;
    bool preferred_ok = true;
    for (std::size_t i = 0; i < world.num_vantage_points(); ++i) {
        const std::string& name = world.vantage(i).name;
        if (name == "EU2") continue;
        auto records =
            yt::capture::read_flow_log_result(run_dir / "logs" / (name + ".yfl"));
        if (!records.ok()) {
            result.check("capture log readable: " + name, false, records.error().what());
            return;
        }
        yt::analysis::IncrementalDcTraffic tally;
        for (const auto& r : records.value()) {
            tally.add(r, setup.maps[i].dc_of(r.server_ip));
        }
        const double preferred =
            1.0 - tally.share(tally.preferred(setup.maps[i])).byte_fraction;
        shares << name << '=' << preferred << ' ';
        preferred_ok = preferred_ok && preferred > 0.85;
    }
    result.check("preferred DC above 85% of bytes outside EU2", preferred_ok,
                 shares.str());

    const auto single = table_column(run_dir / "artifacts" / "fig10_session_patterns.txt",
                                     "1-flow");
    const auto sessions =
        table_column(run_dir / "artifacts" / "failure_breakdown.txt", "sessions");
    double weighted = 0.0;
    double total = 0.0;
    for (const auto& [name, share] : single) {
        const auto it = sessions.find(name);
        if (it == sessions.end()) continue;
        weighted += share * it->second;
        total += it->second;
    }
    const double pooled = total > 0.0 ? weighted / total : 0.0;
    result.check("72-81% single-flow sessions", pooled >= 72.0 && pooled <= 81.0,
                 "pooled " + std::to_string(pooled) + "%");
}

std::uint64_t table1_flows(const std::filesystem::path& run_dir) {
    double flows = 0.0;
    for (const auto& [name, value] :
         table_column(run_dir / "artifacts" / "table1.txt", "Flows")) {
        flows += value;
    }
    return static_cast<std::uint64_t>(flows);
}

}  // namespace

void run_full_study(const Options& options, Result& result) {
    const yt::study::StudyConfig config =
        base_config(options, options.tiny ? kTinyScale : kScale);
    yt::study::SupervisorOptions supervised;
    supervised.run_dir = options.work_dir / "study";
    supervised.policy.attempts = 3;  // the `ytcdn study` defaults
    supervised.policy.backoff_s = 0.05;
    supervised.report.include_table3 = true;
    result.size("scale", config.scale);
    result.size("catalog_size", static_cast<double>(config.effective_catalog_size()));

    yt::util::ThreadPool pool(options.workers);
    LayerSamples layers;
    std::vector<double> setup_walls;
    LayerSamples* setup_layers = options.trace ? &layers : nullptr;
    const Deployment setup = build_setup(config, pool, setup_walls, setup_layers);
    sample_setup(options, config, pool, setup_walls, setup_layers);

    auto& registry = yt::util::metrics::Registry::global();
    bool reps_ok = true;
    std::string failure;
    std::string first_digest;
    std::uint64_t sessions = 0;
    std::uint64_t flows = 0;
    // One supervised run; returns its wall time. `trace`, when non-null,
    // receives the run as a span with the supervisor's stages as children.
    const auto supervised_run = [&](SpanTrace* trace) -> double {
        fresh_dir(supervised.run_dir);
        registry.reset();
        const double t0 = now_s();
        std::optional<SpanTrace::Scope> span;
        if (trace != nullptr) span.emplace(*trace, "study.supervisor");
        auto run = yt::study::Supervisor(config, supervised).run();
        if (trace != nullptr && run.ok()) {
            for (const auto& stage : run.value().stages) {
                trace->add_child("study.stage." + std::string(to_string(stage.stage)),
                                 stage.wall_s);
            }
        }
        span.reset();
        const double wall = now_s() - t0;

        const std::uint64_t failed = registry_counter("workload.player.failures");
        sessions = registry_counter("workload.player.sessions");
        result.attempted += sessions;
        result.failed += failed;
        if (!run.ok()) {
            reps_ok = false;
            failure = run.error().what();
            return wall;
        }
        const auto& outcome = run.value();
        bool stages_ok = outcome.completed;
        for (const auto& stage : outcome.stages) {
            stages_ok = stages_ok && stage.completed && !stage.degraded;
        }
        result.attempted += outcome.stages.size();
        result.failed += outcome.degraded.size();
        const std::string digest = file_digest(outcome.report_path);
        if (first_digest.empty()) first_digest = digest;
        flows = table1_flows(supervised.run_dir);
        const std::uint64_t player_flows =
            registry_counter("workload.player.video_flows") +
            registry_counter("workload.player.control_flows");
        if (!stages_ok || !outcome.degraded.empty() || failed != 0) {
            reps_ok = false;
            failure = std::to_string(outcome.degraded.size()) +
                      " degraded artifacts, " + std::to_string(failed) +
                      " failed sessions";
        } else if (digest != first_digest) {
            reps_ok = false;
            failure = "report.txt differs between repetitions";
        } else if (flows != player_flows || flows == 0) {
            reps_ok = false;
            failure = "Table I counts " + std::to_string(flows) +
                      " flows, the players opened " + std::to_string(player_flows);
        }
        if (trace != nullptr) {
            const double n = static_cast<double>(sessions);
            layers.add("workload.sessions", n, "count");
            layers.add("cdn.redirects_per_session",
                       static_cast<double>(registry_counter("workload.player.redirects")) / n,
                       "1/session");
            layers.add("cdn.dns_cache_hit_rate",
                       static_cast<double>(
                           registry_counter("workload.player.dns_cache_hits")) / n,
                       "ratio");
            layers.add("cdn.failovers",
                       static_cast<double>(registry_counter("workload.player.failovers")),
                       "count");
            for (const auto& stage : outcome.stages) {
                layers.add("study.stage." + std::string(to_string(stage.stage)) + "_s",
                           stage.wall_s, "s");
            }
            layers.add("study.degraded", static_cast<double>(outcome.degraded.size()),
                       "count");
        }
        return wall;
    };

    std::vector<double> walls;
    if (!options.trace) {
        walls = repeat_for(options.seconds, 3, [&] { return supervised_run(nullptr); });
    } else {
        walls = traced_pairs(
            options, [&] { return supervised_run(nullptr); },
            [&](SpanTrace& trace) { return supervised_run(&trace); }, layers);
        run_probes(options, *setup.world, result, layers);
        layers.report(result);
    }

    result.check("every stage and artifact complete, zero failed sessions", reps_ok,
                 failure);
    check_paper_shapes(supervised.run_dir, setup, result);
    Result::info("report.txt", first_digest);

    sample_setup(options, config, pool, setup_walls, setup_layers);
    result.metric("setup_s", median(setup_walls), "s");
    print_walls(walls);
    const double wall = median(walls);
    result.size("repetitions", static_cast<double>(walls.size()));
    result.size("sessions", static_cast<double>(sessions));
    result.size("flows", static_cast<double>(flows));
    result.metric("wall_s", wall, "s");
    result.metric("sessions_per_s", static_cast<double>(sessions) / wall, "sessions/s");
    result.metric("ingest_flows_per_s", static_cast<double>(flows) / wall, "flows/s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
