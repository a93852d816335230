#include "study/scale_run.hpp"

#include <memory>
#include <optional>
#include <system_error>
#include <utility>

#include "analysis/streaming.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_sink.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "study/trace_driver.hpp"
#include "util/metrics.hpp"

namespace ytcdn::study {

namespace {

struct ScaleMetrics {
    util::metrics::Counter runs = util::metrics::counter("scale.runs");
    util::metrics::Counter spilled = util::metrics::counter("scale.records_spilled");
};

ScaleMetrics& scale_metrics() {
    static ScaleMetrics metrics;
    return metrics;
}

/// Pass-1 sink: spills each record to the vantage point's YFL2 log and
/// feeds the order-independent DC-traffic tally, so pass 2 starts with the
/// preferred data center already decidable. First write error latches; the
/// run surfaces it after the (infallible) simulation finishes.
class SpillSink final : public capture::FlowSink {
public:
    SpillSink(capture::FlowLogWriter writer, const analysis::ServerDcMap& map)
        : writer_(std::move(writer)), map_(&map) {}

    void on_flow(const capture::FlowRecord& record) override {
        tally_.add(record, map_->dc_of(record.server_ip));
        if (error_) return;
        if (auto r = writer_.add(record); !r.ok()) error_ = r.error();
    }

    [[nodiscard]] util::Result<std::uint64_t> finish() {
        if (error_) {
            writer_.discard();
            return *error_;
        }
        if (auto r = writer_.finish(); !r.ok()) return r.error();
        return writer_.records_written();
    }

    [[nodiscard]] const analysis::IncrementalDcTraffic& tally() const noexcept {
        return tally_;
    }

private:
    capture::FlowLogWriter writer_;
    const analysis::ServerDcMap* map_;
    analysis::IncrementalDcTraffic tally_;
    std::optional<Error> error_;
};

/// Pass 2 for one vantage point: stream the spilled log back through the
/// incremental §VII modules. Holds O(block + tallies) memory.
util::Result<VantageScaleSummary> analyze_spill(
    const std::filesystem::path& path, const std::string& name,
    const analysis::ServerDcMap& map, const analysis::IncrementalDcTraffic& tally,
    std::size_t chunk_bytes) {
    VantageScaleSummary out;
    out.name = name;
    out.preferred = tally.preferred(map);
    out.share = tally.share(out.preferred);

    analysis::IncrementalHourlyLoad hourly(out.preferred, name);
    analysis::IncrementalVideoRedirects redirects(out.preferred);

    auto reader = capture::FlowLogReader::open(path, chunk_bytes);
    if (!reader.ok()) return reader.error();
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        if (!n.ok()) {
            return std::move(n).context("streaming " + path.string()).error();
        }
        if (n.value() == 0) break;
        for (const auto& record : block) {
            const int dc = map.dc_of(record.server_ip);
            hourly.add(record, dc);
            redirects.add(record, dc);
        }
    }
    out.flows = reader.value().records_read();
    out.load_correlation = hourly.correlation();
    out.redirected_videos = redirects.num_videos();
    return out;
}

}  // namespace

util::Result<ScaleRunSummary> run_scale_study(const ScaleRunConfig& config,
                                              util::ThreadPool& pool) {
    scale_metrics().runs.inc();
    StudyDeployment deployment(config.study);
    const std::size_t n = deployment.num_vantage_points();

    // The ground-truth maps are trace-independent (deployment + pings), so
    // pass 1 can resolve server->dc as records stream by.
    auto maps = util::parallel_map_indexed(pool, n, [&deployment](std::size_t i) {
        return ground_truth_dc_map(deployment, deployment.vantage(i));
    });

    std::error_code ec;
    std::filesystem::create_directories(config.spill_dir, ec);
    if (ec) {
        return Error(ErrorCode::Io, "create_directories failed for " +
                                        config.spill_dir.string() + ": " +
                                        ec.message());
    }

    std::vector<std::filesystem::path> spill_paths;
    std::vector<std::unique_ptr<SpillSink>> sinks;
    std::vector<capture::FlowSink*> sink_ptrs;
    spill_paths.reserve(n);
    sinks.reserve(n);
    sink_ptrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        spill_paths.push_back(config.spill_dir /
                              (deployment.vantage(i).name + ".yfl"));
        auto writer = capture::FlowLogWriter::create(spill_paths.back());
        if (!writer.ok()) {
            return std::move(writer).context("creating spill log").error();
        }
        sinks.push_back(std::make_unique<SpillSink>(std::move(writer).value(),
                                                    maps[i]));
        sink_ptrs.push_back(sinks.back().get());
    }

    TraceDriver driver(deployment);
    driver.set_flow_sinks(std::move(sink_ptrs));
    TraceOutputs traces = driver.run();

    ScaleRunSummary summary;
    summary.events = traces.events_processed;
    for (const auto r : traces.requests_generated) summary.sessions += r;
    for (std::size_t i = 0; i < n; ++i) {
        auto spilled = sinks[i]->finish();
        if (!spilled.ok()) {
            return std::move(spilled)
                .context("spilling " + spill_paths[i].string())
                .error();
        }
        summary.flows += spilled.value();
    }
    scale_metrics().spilled.inc(summary.flows);

    // Pass 2: stream every spill through the incremental modules, one
    // independent task per vantage point, results in VP order.
    auto analyzed = util::parallel_map_indexed(
        pool, n, [&](std::size_t i) -> util::Result<VantageScaleSummary> {
            return analyze_spill(spill_paths[i], deployment.vantage(i).name,
                                 maps[i], sinks[i]->tally(),
                                 config.reader_chunk_bytes);
        });
    summary.vantage.reserve(n);
    for (auto& result : analyzed) {
        if (!result.ok()) return result.error();
        summary.vantage.push_back(std::move(result).value());
    }

    if (!config.keep_spill) {
        for (const auto& path : spill_paths) {
            std::error_code ignore;
            std::filesystem::remove(path, ignore);
        }
    }
    return summary;
}

}  // namespace ytcdn::study
