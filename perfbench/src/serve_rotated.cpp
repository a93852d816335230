// serve_rotated: ytcdnd (service::Service) in --once mode over a spool of
// hourly rotated YFL2 logs, "<VP>-<hour>.yfl", plus one .dcmap. Set-up
// builds the spool from one seeded week (not timed); the measured job is
// decode + fold with periodic checkpoints (kCheckpointEvery). The
// traced run replays the daemon's ingest from its public pieces
// (scan_spool, read_spool_file, IngestQueue, ServiceAggregates,
// study::write_checkpoint) with a clock around each stage.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_sink.hpp"
#include "service/aggregates.hpp"
#include "service/ingest_queue.hpp"
#include "service/service.hpp"
#include "service/spool.hpp"
#include "sim/time.hpp"
#include "study/checkpoint.hpp"
#include "study/dc_map_builder.hpp"
#include "study/event_engine_driver.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace perfbench {

namespace {

namespace yt = ytcdn;

constexpr double kScale = 0.1;
constexpr double kTinyScale = 0.002;

/// Writes one vantage point's capture as hourly rotated YFL2 files.
class RotatingSink final : public yt::capture::FlowSink {
public:
    RotatingSink(std::filesystem::path dir, std::string name)
        : dir_(std::move(dir)), name_(std::move(name)) {}

    void on_flow(const yt::capture::FlowRecord& record) override {
        if (!ok_) return;
        const auto hour = static_cast<long>(record.start / yt::sim::kHour);
        if (!writer_.is_open() || hour != hour_) {
            if (!close()) return;
            std::ostringstream file;
            file << name_ << '-' << std::setw(3) << std::setfill('0') << hour << ".yfl";
            auto writer = yt::capture::FlowLogWriter::create(dir_ / file.str());
            if (!writer.ok()) {
                ok_ = false;
                return;
            }
            writer_ = std::move(writer).value();
            hour_ = hour;
        }
        ok_ = writer_.add(record).ok();
    }

    /// Publishes the open file; false on any write error so far.
    bool close() {
        if (ok_ && writer_.is_open()) {
            records += writer_.records_written();
            ok_ = writer_.finish().ok();
            files += 1;
        }
        return ok_;
    }

    std::uint64_t records = 0;
    std::uint64_t files = 0;

private:
    std::filesystem::path dir_;
    std::string name_;
    yt::capture::FlowLogWriter writer_;
    long hour_ = -1;
    bool ok_ = true;
};

struct Spool {
    std::uint64_t files = 0;
    std::uint64_t records = 0;
    std::uint64_t sessions = 0;
    bool ok = true;
};

Spool build_spool(const yt::study::StudyConfig& config,
                  const std::filesystem::path& dir,
                  std::unique_ptr<yt::study::StudyDeployment>& world) {
    fresh_dir(dir);
    world = std::make_unique<yt::study::StudyDeployment>(config);
    std::vector<std::unique_ptr<RotatingSink>> sinks;
    std::vector<yt::capture::FlowSink*> sink_ptrs;
    for (std::size_t i = 0; i < world->num_vantage_points(); ++i) {
        sinks.push_back(std::make_unique<RotatingSink>(dir, world->vantage(i).name));
        sink_ptrs.push_back(sinks.back().get());
    }
    yt::study::EventEngineDriver driver(*world);
    driver.set_flow_sinks(sink_ptrs);
    const auto traces = driver.run();

    Spool spool;
    for (const auto r : traces.requests_generated) spool.sessions += r;
    for (auto& sink : sinks) {
        spool.ok = sink->close() && spool.ok;
        spool.files += sink->files;
        spool.records += sink->records;
    }
    const auto& vp = world->vantage(0);
    std::ofstream map_file(dir / (vp.name + ".dcmap"));
    yt::analysis::write_dc_map(map_file, yt::study::ground_truth_dc_map(*world, vp));
    spool.ok = spool.ok && static_cast<bool>(map_file);
    return spool;
}

/// Files between service checkpoints: one per vantage point's week of hourly
/// logs. The daemon's default (every file) makes a repetition ~3200 fsyncs,
/// whose latency on a shared disk swings by more than 2x for minutes at a
/// time and swamps every other cost in the run-to-run spread.
constexpr std::size_t kCheckpointEvery = 168;

/// `ytcdn serve --once` with its command-line defaults but kCheckpointEvery.
yt::service::ServiceOptions daemon_options(const Options& options,
                                           std::filesystem::path spool,
                                           std::filesystem::path run_dir) {
    yt::service::ServiceOptions daemon;
    daemon.spool_dir = std::move(spool);
    daemon.run_dir = std::move(run_dir);
    daemon.once = true;
    daemon.checkpoint_every = kCheckpointEvery;
    daemon.threads = options.workers;
    daemon.policy.attempts = 3;
    daemon.policy.backoff_s = 0.05;
    return daemon;
}

template <typename T>
void put(std::string& buf, T value) {
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    buf.append(raw, sizeof(T));
}

void put_str32(std::string& buf, std::string_view s) {
    put(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

struct LedgerEntry {
    std::string name;
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    std::uint64_t records = 0;
    std::uint32_t batches = 0;
};

/// The daemon's checkpoint state, laid out as the service encodes it:
/// aggregates, file ledger, (empty) shed log and control history, totals.
std::string encode_state(const yt::service::ServiceAggregates& aggregates,
                         const std::vector<LedgerEntry>& ledger,
                         std::uint64_t records) {
    std::string buf;
    put_str32(buf, aggregates.encode());
    put(buf, static_cast<std::uint32_t>(ledger.size()));
    for (const auto& entry : ledger) {
        put_str32(buf, entry.name);
        put(buf, entry.size);
        put(buf, entry.crc);
        put(buf, entry.records);
        put(buf, entry.batches);
        put(buf, std::uint32_t{0});
        put_str32(buf, "ok");
    }
    put(buf, std::uint32_t{0});
    put(buf, std::uint32_t{0});
    put(buf, static_cast<std::uint64_t>(ledger.size()));
    put(buf, records);
    return buf;
}

std::string hex(std::uint64_t v, int digits) {
    std::ostringstream os;
    os << std::hex << std::setw(digits) << std::setfill('0') << v;
    return os.str();
}

/// The daemon's service_manifest.txt, line for line.
std::string render_manifest(const yt::service::ServiceOptions& daemon,
                            std::uint64_t fingerprint,
                            const std::vector<LedgerEntry>& ledger,
                            std::uint64_t records, std::string_view status) {
    std::ostringstream os;
    os << "# ytcdnd service manifest\nmanifest_version 1\nfingerprint "
       << hex(fingerprint, 16) << "\ngap_s " << daemon.gap_T_s << "\nqueue_capacity "
       << daemon.queue_capacity << "\nbatch_records " << daemon.batch_records << '\n';
    for (const auto& entry : ledger) {
        os << "file " << entry.name << " size=" << entry.size
           << " crc=" << hex(entry.crc, 8) << " records=" << entry.records
           << " batches=" << entry.batches << " shed=0 status=ok\n";
    }
    os << "files_total " << ledger.size() << "\nrecords_total " << records
       << "\nshed_batches_total 0\nshed_records_total 0\nstatus " << status << '\n';
    return os.str();
}

struct ParsedFile {
    yt::service::SpoolFile file;
    std::vector<yt::capture::FlowRecord> records;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    double decode_s = 0.0;
    bool ok = false;
};

/// The traced replay of one `--once` daemon run, ending with the daemon's
/// aggregates.txt in daemon.run_dir. False when a stage failed.
bool traced_ingest(const yt::service::ServiceOptions& daemon, yt::util::ThreadPool& pool,
                   SpanTrace& trace, LayerSamples& layers) {
    namespace io = yt::util::io;
    const std::uint64_t fingerprint = yt::service::Service(daemon).fingerprint();
    const auto checkpoint_file =
        yt::study::checkpoint_path(daemon.run_dir, yt::study::Stage::Service);
    const auto manifest_file = daemon.run_dir / "service_manifest.txt";
    yt::service::ServiceAggregates aggregates(daemon.gap_T_s);
    std::vector<LedgerEntry> ledger;
    std::uint64_t records = 0;
    bool ok = true;
    const auto write_state = [&](std::string_view status) {
        const std::string payload = encode_state(aggregates, ledger, records);
        ok = yt::study::write_checkpoint(checkpoint_file, fingerprint,
                                         yt::study::Stage::Service, payload)
                 .ok() &&
             io::write_file_atomic(manifest_file,
                                   render_manifest(daemon, fingerprint, ledger,
                                                   records, status))
                 .ok() &&
             ok;
        return payload.size();
    };
    const auto tick = [&] {
        auto span = trace.span("service.tick");
        (void)io::poll_readable(-1, daemon.tick_ms);
    };

    {
        auto span = trace.span("service.startup");
        std::filesystem::create_directories(daemon.run_dir / "checkpoints");
        (void)write_state("running");
    }
    tick();
    std::vector<yt::service::SpoolFile> files;
    {
        auto span = trace.span("service.scan");
        files = yt::service::scan_spool(daemon.spool_dir);
        const auto maps = yt::service::scan_dc_maps(daemon.spool_dir);
        if (maps.empty()) return false;
        auto bytes = io::read_file(maps.front().path);
        if (!bytes.ok()) return false;
        std::istringstream is(std::move(bytes).value());
        aggregates.preference().set_map(yt::analysis::read_dc_map(is));
    }

    std::vector<ParsedFile> parsed;
    {
        auto span = trace.span("service.parse");
        parsed = yt::util::parallel_map(pool, files, [&](const yt::service::SpoolFile& f) {
            ParsedFile out;
            out.file = f;
            const auto outcome = yt::study::run_supervised(
                "parse " + f.name, daemon.policy, [&] {
                    auto bytes = io::read_file(f.path);
                    if (!bytes) throw bytes.error();
                    out.size = bytes.value().size();
                    out.crc = yt::util::crc32(bytes.value());
                    const double t0 = now_s();
                    auto decoded = yt::service::read_spool_file(f.path);
                    out.decode_s = now_s() - t0;
                    if (!decoded) throw decoded.error();
                    out.records = std::move(decoded).value();
                });
            out.ok = outcome.completed;
            return out;
        });
    }

    double decode_s = 0.0;
    double bytes_read = 0.0;
    double fold_s = 0.0;
    double checkpoint_bytes = 0.0;
    std::vector<double> checkpoint_ms;
    std::size_t files_since_checkpoint = 0;
    yt::service::IngestQueue queue(daemon.queue_capacity);
    for (auto& file : parsed) {
        if (!file.ok) return false;
        decode_s += file.decode_s;
        bytes_read += static_cast<double>(file.size);
        {
            auto span = trace.span("service.apply");
            LedgerEntry entry{file.file.name, file.size, file.crc, 0, 0};
            for (std::size_t off = 0; off < file.records.size();
                 off += daemon.batch_records) {
                yt::service::IngestBatch batch;
                batch.file = file.file.name;
                batch.index = entry.batches;
                const std::size_t end =
                    std::min(off + daemon.batch_records, file.records.size());
                batch.records.assign(file.records.begin() + static_cast<std::ptrdiff_t>(off),
                                     file.records.begin() + static_cast<std::ptrdiff_t>(end));
                if (!queue.push(std::move(batch))) return false;
                ++entry.batches;
            }
            const std::string stream = yt::service::stream_of(file.file.name);
            double fold = 0.0;
            const auto outcome = yt::study::run_supervised(
                "aggregate " + file.file.name, daemon.policy, [&] {
                    while (!queue.empty()) {
                        const auto batch = queue.pop();
                        const double t0 = now_s();
                        for (const auto& record : batch.records) {
                            aggregates.add(stream, record);
                        }
                        fold += now_s() - t0;
                        entry.records += batch.records.size();
                    }
                });
            if (!outcome.completed) return false;
            trace.add_child("analysis.fold", fold);
            fold_s += fold;
            records += entry.records;
            ledger.push_back(std::move(entry));
            file.records.clear();
            file.records.shrink_to_fit();
        }
        if (++files_since_checkpoint < daemon.checkpoint_every) continue;
        files_since_checkpoint = 0;
        const double t0 = now_s();
        {
            auto span = trace.span("service.checkpoint");
            checkpoint_bytes += static_cast<double>(write_state("running"));
        }
        checkpoint_ms.push_back((now_s() - t0) * 1e3);
    }
    tick();
    {
        auto span = trace.span("service.scan");
        (void)yt::service::scan_spool(daemon.spool_dir);
    }
    {
        auto span = trace.span("service.shutdown");
        (void)write_state("shutdown");
    }
    {
        auto span = trace.span("service.render");
        ok = io::write_file_atomic(daemon.run_dir / "aggregates.txt", aggregates.render())
                 .ok() &&
             ok;
    }
    if (!ok) return false;

    layers.add("service.parse_s", trace.total_s("service.parse"), "s");
    layers.add("service.apply_s", trace.total_s("service.apply"), "s");
    layers.add("service.checkpoint_s", trace.total_s("service.checkpoint"), "s");
    layers.add("service.checkpoint_ms.p50", quantile(checkpoint_ms, 0.5), "ms");
    layers.add("service.checkpoint_ms.p99", quantile(checkpoint_ms, 0.99), "ms");
    layers.add("service.checkpoint_bytes", checkpoint_bytes, "bytes");
    layers.add("service.render_s", trace.total_s("service.render"), "s");
    layers.add("capture.decode_s", decode_s, "s");
    layers.add("capture.decode_mb_per_s", bytes_read / 1e6 / decode_s, "MB/s");
    layers.add("analysis.fold_s", fold_s, "s");
    layers.add("analysis.fold_ns_per_record",
               fold_s * 1e9 / static_cast<double>(records), "ns");
    return true;
}

}  // namespace

void run_serve_rotated(const Options& options, Result& result) {
    const yt::study::StudyConfig config =
        base_config(options, options.tiny ? kTinyScale : kScale);
    const auto spool_dir = options.work_dir / "spool";
    std::unique_ptr<yt::study::StudyDeployment> world;
    const Spool spool = build_spool(config, spool_dir, world);
    result.check("spool built", spool.ok && spool.files > 0 && spool.records > 0);
    if (!spool.ok) return;
    result.size("scale", config.scale);
    result.size("spool_files", static_cast<double>(spool.files));
    result.size("spool_flows", static_cast<double>(spool.records));
    result.size("spool_sessions", static_cast<double>(spool.sessions));

    // Set-up: daemon start-up through its first (empty) spool scan and quiesce.
    const auto empty_spool = options.work_dir / "empty_spool";
    const auto daemon = daemon_options(options, spool_dir, options.work_dir / "serve");
    const auto idle = daemon_options(options, empty_spool, options.work_dir / "idle");
    std::vector<double> setups;
    for (int r = 0; r < (options.tiny ? 2 : 9); ++r) {
        fresh_dir(empty_spool);
        fresh_dir(idle.run_dir);
        yt::service::clear_stop();
        const double t0 = now_s();
        const bool ok = yt::service::Service(idle).run().ok();
        setups.push_back(now_s() - t0);
        if (!ok) result.check("idle daemon run", false);
    }
    result.metric("setup_s", median(setups), "s");

    yt::util::ThreadPool pool(options.workers);
    auto& registry = yt::util::metrics::Registry::global();
    bool reps_ok = true;
    std::string failure;
    std::string first_digest;
    std::string manifest_digest;
    const auto untraced = [&]() -> double {
        fresh_dir(daemon.run_dir);
        registry.reset();
        yt::service::clear_stop();
        const double t0 = now_s();
        auto report = yt::service::Service(daemon).run();
        const double wall = now_s() - t0;
        result.attempted += spool.records;
        if (!report.ok()) {
            reps_ok = false;
            failure = report.error().what();
            result.failed += spool.records;
            return wall;
        }
        const auto& r = report.value();
        const std::uint64_t lost = spool.records - std::min(spool.records, r.records_ingested);
        result.failed += std::max(lost, r.records_shed);
        const std::string digest = file_digest(r.aggregates_path);
        if (first_digest.empty()) {
            first_digest = digest;
            manifest_digest = file_digest(r.manifest_path);
        }
        if (r.files_ingested != spool.files || r.records_ingested != spool.records ||
            r.records_shed != 0 || registry_counter("service.files_quarantined") != 0) {
            reps_ok = false;
            failure = "ingested " + std::to_string(r.records_ingested) + " of " +
                      std::to_string(spool.records) + " flows from " +
                      std::to_string(r.files_ingested) + " of " +
                      std::to_string(spool.files) + " files, " +
                      std::to_string(r.records_shed) + " shed";
        } else if (digest != first_digest) {
            reps_ok = false;
            failure = "aggregates.txt differs between repetitions";
        }
        return wall;
    };

    std::vector<double> walls;
    if (!options.trace) {
        walls = repeat_for(options.seconds, 3, untraced);
    } else {
        LayerSamples layers;
        bool replica_ok = true;
        walls = traced_pairs(
            options, untraced,
            [&](SpanTrace& trace) {
                fresh_dir(daemon.run_dir);
                const double t0 = now_s();
                const bool ingested = traced_ingest(daemon, pool, trace, layers);
                const double wall = now_s() - t0;
                replica_ok = replica_ok && ingested &&
                             file_digest(daemon.run_dir / "aggregates.txt") == first_digest &&
                             file_digest(daemon.run_dir / "service_manifest.txt") ==
                                 manifest_digest;
                return wall;
            },
            layers);
        result.check("traced replay writes the daemon's aggregates and manifest",
                     replica_ok);
        run_probes(options, *world, result, layers);
        layers.report(result);
    }

    result.check("every spooled flow ingested, none shed or quarantined", reps_ok,
                 failure);
    Result::info("aggregates.txt", first_digest);
    print_walls(walls);
    const double wall = median(walls);
    result.size("repetitions", static_cast<double>(walls.size()));
    result.metric("wall_s", wall, "s");
    result.metric("sessions_per_s", static_cast<double>(spool.sessions) / wall,
                  "sessions/s");
    result.metric("ingest_flows_per_s", static_cast<double>(spool.records) / wall,
                  "flows/s");
    result.metric("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
