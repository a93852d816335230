// scale_stream: the out-of-core scale run (study::run_scale_study). Pass 1
// simulates the week with one spilling FlowSink per vantage point, pass 2
// streams the YFL2 spills back through the incremental §VII folds. The
// traced run rebuilds the same two passes from their public pieces (the
// EventEngineDriver with FlowSinks, FlowLogWriter/FlowLogReader and the
// incremental folds) so each layer gets its own clock.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/streaming.hpp"
#include "bench.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_sink.hpp"
#include "study/dc_map_builder.hpp"
#include "study/event_engine_driver.hpp"
#include "study/scale_run.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace {

namespace yt = ytcdn;

constexpr double kSessions = 150'000.0;
constexpr double kTinySessions = 20'000.0;

/// Pass-1 sink of the traced replica: the same work as the scale run's
/// spill sink (DC tally + YFL2 append), with a clock around each half.
class TimedSpillSink final : public yt::capture::FlowSink {
public:
    TimedSpillSink(yt::capture::FlowLogWriter writer,
                   const yt::analysis::ServerDcMap& map)
        : writer_(std::move(writer)), map_(&map) {}

    void on_flow(const yt::capture::FlowRecord& record) override {
        const double t0 = now_s();
        tally_.add(record, map_->dc_of(record.server_ip));
        const double t1 = now_s();
        if (!error_) {
            if (auto r = writer_.add(record); !r.ok()) error_ = r.error().what();
        }
        tally_s += t1 - t0;
        encode_s += now_s() - t1;
    }

    /// Publishes the log; returns the records written or nullopt on error.
    std::optional<std::uint64_t> finish() {
        if (error_) {
            writer_.discard();
            return std::nullopt;
        }
        const double t0 = now_s();
        const bool ok = writer_.finish().ok();
        encode_s += now_s() - t0;
        if (!ok) return std::nullopt;
        return writer_.records_written();
    }

    [[nodiscard]] const yt::analysis::IncrementalDcTraffic& tally() const noexcept {
        return tally_;
    }

    double tally_s = 0.0;
    double encode_s = 0.0;

private:
    yt::capture::FlowLogWriter writer_;
    const yt::analysis::ServerDcMap* map_;
    yt::analysis::IncrementalDcTraffic tally_;
    std::optional<std::string> error_;
};

/// One vantage point's pass-2 task of the traced replica.
struct Pass2 {
    yt::study::VantageScaleSummary summary;
    double decode_s = 0.0;
    double fold_s = 0.0;
    double wall_s = 0.0;
    bool ok = false;
};

Pass2 analyze_spill(const std::filesystem::path& path, const std::string& name,
                    const yt::analysis::ServerDcMap& map,
                    const yt::analysis::IncrementalDcTraffic& tally) {
    const double start = now_s();
    Pass2 out;
    out.summary.name = name;
    out.summary.preferred = tally.preferred(map);
    out.summary.share = tally.share(out.summary.preferred);
    yt::analysis::IncrementalHourlyLoad hourly(out.summary.preferred, name);
    yt::analysis::IncrementalVideoRedirects redirects(out.summary.preferred);

    auto reader = yt::capture::FlowLogReader::open(path);
    if (!reader.ok()) return out;
    std::vector<yt::capture::FlowRecord> block;
    for (;;) {
        const double t0 = now_s();
        auto n = reader.value().next(block);
        const double t1 = now_s();
        out.decode_s += t1 - t0;
        if (!n.ok()) return out;
        if (n.value() == 0) break;
        for (const auto& record : block) {
            const int dc = map.dc_of(record.server_ip);
            hourly.add(record, dc);
            redirects.add(record, dc);
        }
        out.fold_s += now_s() - t1;
    }
    out.summary.flows = reader.value().records_read();
    out.summary.load_correlation = hourly.correlation();
    out.summary.redirected_videos = redirects.num_videos();
    out.wall_s = now_s() - start;
    out.ok = true;
    return out;
}

bool same_summary(const yt::study::ScaleRunSummary& a,
                  const yt::study::ScaleRunSummary& b) {
    if (a.sessions != b.sessions || a.flows != b.flows || a.events != b.events ||
        a.vantage.size() != b.vantage.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.vantage.size(); ++i) {
        const auto& x = a.vantage[i];
        const auto& y = b.vantage[i];
        if (x.name != y.name || x.flows != y.flows || x.preferred != y.preferred ||
            x.share.byte_fraction != y.share.byte_fraction ||
            x.share.flow_fraction != y.share.flow_fraction ||
            x.load_correlation != y.load_correlation ||
            x.redirected_videos != y.redirected_videos) {
            return false;
        }
    }
    return true;
}

/// The traced replica of run_scale_study. Returns its summary; records one
/// sample per layer metric and the spans in `trace`.
std::optional<yt::study::ScaleRunSummary> traced_scale_run(
    const yt::study::ScaleRunConfig& config, yt::util::ThreadPool& pool,
    SpanTrace& trace, LayerSamples& layers) {
    std::unique_ptr<yt::study::StudyDeployment> deployment;
    {
        auto span = trace.span("study.deployment");
        deployment = std::make_unique<yt::study::StudyDeployment>(config.study);
    }
    const std::size_t n = deployment->num_vantage_points();
    std::vector<yt::analysis::ServerDcMap> maps;
    {
        auto span = trace.span("geoloc.dc_map");
        const auto& world = *deployment;
        maps = yt::util::parallel_map_indexed(pool, n, [&world](std::size_t i) {
            return yt::study::ground_truth_dc_map(world, world.vantage(i));
        });
    }

    std::vector<std::filesystem::path> paths;
    std::vector<std::unique_ptr<TimedSpillSink>> sinks;
    std::vector<yt::capture::FlowSink*> sink_ptrs;
    {
        auto span = trace.span("capture.open");
        std::filesystem::create_directories(config.spill_dir);
        for (std::size_t i = 0; i < n; ++i) {
            paths.push_back(config.spill_dir / (deployment->vantage(i).name + ".yfl"));
            auto writer = yt::capture::FlowLogWriter::create(paths.back());
            if (!writer.ok()) return std::nullopt;
            sinks.push_back(
                std::make_unique<TimedSpillSink>(std::move(writer).value(), maps[i]));
            sink_ptrs.push_back(sinks.back().get());
        }
    }

    yt::study::TraceOutputs traces;
    double callbacks_s = 0.0;
    double run_s = 0.0;
    {
        auto span = trace.span("sim.run");
        const double t0 = now_s();
        yt::study::EventEngineDriver driver(*deployment);
        driver.set_flow_sinks(sink_ptrs);
        traces = driver.run();
        run_s = now_s() - t0;
        double tally_s = 0.0;
        double add_s = 0.0;
        for (const auto& sink : sinks) {
            tally_s += sink->tally_s;
            add_s += sink->encode_s;
        }
        trace.add_child("analysis.tally", tally_s);
        trace.add_child("capture.encode", add_s);
        callbacks_s = tally_s + add_s;
        layers.add("analysis.tally_s", tally_s, "s");
    }

    yt::study::ScaleRunSummary summary;
    summary.events = traces.events_processed;
    for (const auto r : traces.requests_generated) summary.sessions += r;
    double encode_s = 0.0;
    {
        auto span = trace.span("capture.finish");
        for (std::size_t i = 0; i < n; ++i) {
            const auto written = sinks[i]->finish();
            if (!written) return std::nullopt;
            summary.flows += *written;
            encode_s += sinks[i]->encode_s;
        }
    }
    double bytes_spilled = 0.0;
    for (const auto& path : paths) {
        bytes_spilled += static_cast<double>(std::filesystem::file_size(path));
    }

    std::vector<Pass2> pass2;
    {
        auto span = trace.span("analysis.pass2");
        pass2 = yt::util::parallel_map_indexed(pool, n, [&](std::size_t i) {
            return analyze_spill(paths[i], deployment->vantage(i).name, maps[i],
                                 sinks[i]->tally());
        });
    }
    {
        auto span = trace.span("util.cleanup");
        for (const auto& path : paths) std::filesystem::remove(path);
    }

    double decode_s = 0.0;
    double fold_s = 0.0;
    double slowest = 0.0;
    double task_sum = 0.0;
    for (auto& task : pass2) {
        if (!task.ok) return std::nullopt;
        decode_s += task.decode_s;
        fold_s += task.fold_s;
        slowest = std::max(slowest, task.wall_s);
        task_sum += task.wall_s;
        summary.vantage.push_back(std::move(task.summary));
    }

    std::uint64_t observed = 0;
    std::uint64_t ignored = 0;
    for (std::size_t i = 0; i < n; ++i) {
        observed += traces.flows_observed[i];
        ignored += traces.flows_ignored[i];
    }
    double redirects = 0.0;
    double dns_hits = 0.0;
    double failovers = 0.0;
    for (const auto& stats : traces.player_stats) {
        redirects += static_cast<double>(stats.redirects_miss + stats.redirects_overload);
        dns_hits += static_cast<double>(stats.dns_cache_hits);
        failovers += static_cast<double>(stats.failovers);
    }
    const double sessions = static_cast<double>(summary.sessions);
    const double events = static_cast<double>(summary.events);
    const double flows = static_cast<double>(summary.flows);
    const double self_s = run_s - callbacks_s;

    layers.add("sim.run_s", run_s, "s");
    layers.add("sim.self_s", self_s, "s");
    layers.add("sim.events", events, "count");
    layers.add("sim.events_per_session", events / sessions, "events/session");
    layers.add("sim.ns_per_event", self_s * 1e9 / events, "ns");
    layers.add("workload.sessions", sessions, "count");
    layers.add("cdn.redirects_per_session", redirects / sessions, "1/session");
    layers.add("cdn.dns_cache_hit_rate", dns_hits / sessions, "ratio");
    layers.add("cdn.failovers", failovers, "count");
    layers.add("capture.flows_observed", static_cast<double>(observed), "count");
    layers.add("capture.flows_kept", static_cast<double>(observed - ignored), "count");
    layers.add("capture.dpi_keep_ratio",
               static_cast<double>(observed - ignored) / static_cast<double>(observed),
               "ratio");
    layers.add("capture.encode_s", encode_s, "s");
    layers.add("capture.encode_mb_per_s", bytes_spilled / 1e6 / encode_s, "MB/s");
    layers.add("capture.bytes_spilled", bytes_spilled, "bytes");
    layers.add("capture.decode_s", decode_s, "s");
    layers.add("capture.decode_mb_per_s", bytes_spilled / 1e6 / decode_s, "MB/s");
    layers.add("analysis.fold_s", fold_s, "s");
    layers.add("analysis.fold_ns_per_record", fold_s * 1e9 / flows, "ns");
    layers.add("analysis.pass2_wall_s", trace.total_s("analysis.pass2"), "s");
    layers.add("analysis.pass2_skew",
               slowest / (task_sum / static_cast<double>(pass2.size())), "ratio");
    return summary;
}

}  // namespace

void run_scale_stream(const Options& options, Result& result) {
    const double target = options.tiny ? kTinySessions : kSessions;
    yt::study::ScaleRunConfig config;
    config.study = base_config(options, target / kSessionsPerUnitScale);
    config.spill_dir = options.work_dir / "spill";
    result.size("target_sessions", target);
    result.size("scale", config.study.scale);
    result.size("catalog_size", static_cast<double>(config.study.effective_catalog_size()));

    yt::util::ThreadPool pool(options.workers);
    LayerSamples layers;
    std::vector<double> setup_walls;
    LayerSamples* setup_layers = options.trace ? &layers : nullptr;
    const Deployment setup = build_setup(config.study, pool, setup_walls, setup_layers);
    sample_setup(options, config.study, pool, setup_walls, setup_layers);

    auto& registry = yt::util::metrics::Registry::global();
    std::optional<yt::study::ScaleRunSummary> last;
    bool reps_ok = true;
    std::string failure;
    const auto untraced = [&]() -> double {
        registry.reset();
        const double t0 = now_s();
        auto summary = yt::study::run_scale_study(config, pool);
        const double wall = now_s() - t0;
        if (!summary.ok()) {
            reps_ok = false;
            failure = summary.error().what();
            return wall;
        }
        const auto& s = summary.value();
        std::uint64_t reread = 0;
        for (const auto& v : s.vantage) reread += v.flows;
        const std::uint64_t failed = registry_counter("workload.player.failures");
        if (reread != s.flows || registry_counter("scale.records_spilled") != s.flows) {
            reps_ok = false;
            failure = "spilled " + std::to_string(s.flows) + " flows, re-read " +
                      std::to_string(reread);
        }
        if (failed != 0 || s.sessions == 0 || s.flows == 0) {
            reps_ok = false;
            failure = std::to_string(failed) + " failed of " +
                      std::to_string(s.sessions) + " sessions";
        }
        result.attempted += s.sessions;
        result.failed += failed;
        last = std::move(summary).value();
        return wall;
    };

    std::vector<double> walls;
    if (!options.trace) {
        walls = repeat_for(options.seconds, 3, untraced);
    } else {
        bool replica_ok = true;
        walls = traced_pairs(
            options, untraced,
            [&](SpanTrace& trace) {
                const double t0 = now_s();
                const auto replica = traced_scale_run(config, pool, trace, layers);
                const double wall = now_s() - t0;
                replica_ok = replica_ok && replica && last && same_summary(*replica, *last);
                return wall;
            },
            layers);
        result.check("traced replica matches run_scale_study", replica_ok);
        run_probes(options, *setup.world, result, layers);
        layers.report(result);
    }

    result.check("spilled flows re-read, zero failed sessions", reps_ok, failure);
    sample_setup(options, config.study, pool, setup_walls, setup_layers);
    result.metric("setup_s", median(setup_walls), "s");
    if (!last) return;
    print_walls(walls);
    const double wall = median(walls);
    result.size("repetitions", static_cast<double>(walls.size()));
    result.size("sessions", static_cast<double>(last->sessions));
    result.size("flows", static_cast<double>(last->flows));
    result.metric("wall_s", wall, "s");
    result.metric("sessions_per_s", static_cast<double>(last->sessions) / wall,
                  "sessions/s");
    result.metric("ingest_flows_per_s", static_cast<double>(last->flows) / wall,
                  "flows/s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
