// The supervised study pipeline: YCK1 checkpoint framing and its corruption
// taxonomy, the stage payload codecs, the run directory's flow logs and
// maps (the one persisted copy of the week), interrupted-run resume
// (byte-identical report), checkpoint quarantine, damaged logs, and a full
// run under a p=0.01 fault plan. Also the bench trace snapshot cache, a
// Simulate-stage frame keyed by config_fingerprint beside the week's logs:
// a cached week must render what the simulation it came from renders, and
// must never be served to another configuration.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/binary_log.hpp"
#include "capture/flow_log.hpp"
#include "sim/tracer.hpp"
#include "study/checkpoint.hpp"
#include "study/study_run.hpp"
#include "study/supervisor.hpp"
#include "test_support.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace analysis = ytcdn::analysis;
namespace fs = std::filesystem;
namespace geo = ytcdn::geo;
namespace io = ytcdn::util::io;
namespace net = ytcdn::net;
namespace study = ytcdn::study;
using ytcdn::ErrorCode;

namespace {

study::StudyConfig small_config(std::uint64_t seed = 0xCDA1'2011ull) {
    study::StudyConfig cfg;
    cfg.scale = 0.005;
    cfg.seed = seed;
    return cfg;
}

/// Table III re-runs the whole CBG pipeline; the supervisor tests cover
/// orchestration, not geolocation, so they all skip it for speed.
study::SupervisorOptions fast_options(const fs::path& run_dir) {
    study::SupervisorOptions opt;
    opt.run_dir = run_dir;
    opt.report.include_table3 = false;
    return opt;
}

fs::path temp_dir(const std::string& tag) {
    const auto dir = fs::temp_directory_path() / ("ytcdn_sup_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string read_all(const fs::path& path) {
    return io::read_file(path).value_or_throw();
}

constexpr std::uint64_t kKey = 0xFEEDFACE12345678ull;

/// A week small enough to simulate in well under a second.
study::StudyConfig tiny_config() {
    study::StudyConfig cfg;
    cfg.scale = 0.004;
    return cfg;
}

void expect_records_equal(const std::vector<ytcdn::capture::FlowRecord>& ra,
                          const std::vector<ytcdn::capture::FlowRecord>& rb,
                          const std::string& where) {
    ASSERT_EQ(ra.size(), rb.size()) << where;
    for (std::size_t k = 0; k < ra.size(); ++k) {
        ASSERT_EQ(ra[k].client_ip, rb[k].client_ip) << where << "/" << k;
        ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << where << "/" << k;
        ASSERT_EQ(ra[k].bytes, rb[k].bytes) << where << "/" << k;
        ASSERT_EQ(ra[k].video, rb[k].video) << where << "/" << k;
        ASSERT_EQ(ra[k].resolution, rb[k].resolution) << where << "/" << k;
        ASSERT_EQ(ra[k].start, rb[k].start) << where << "/" << k;
        ASSERT_EQ(ra[k].end, rb[k].end) << where << "/" << k;
    }
}

void expect_traces_equal(const study::TraceOutputs& a, const study::TraceOutputs& b) {
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.requests_generated, b.requests_generated);
    EXPECT_EQ(a.flows_observed, b.flows_observed);
    EXPECT_EQ(a.flows_ignored, b.flows_ignored);
    ASSERT_EQ(a.datasets.size(), b.datasets.size());
    for (std::size_t i = 0; i < a.datasets.size(); ++i) {
        EXPECT_EQ(a.datasets[i].name, b.datasets[i].name);
        expect_records_equal(a.datasets[i].records, b.datasets[i].records,
                             a.datasets[i].name);
        const auto& sa = a.player_stats[i];
        const auto& sb = b.player_stats[i];
        EXPECT_EQ(sa.sessions, sb.sessions) << i;
        EXPECT_EQ(sa.video_flows, sb.video_flows) << i;
        EXPECT_EQ(sa.control_flows, sb.control_flows) << i;
        EXPECT_EQ(sa.redirects_miss, sb.redirects_miss) << i;
        EXPECT_EQ(sa.redirects_overload, sb.redirects_overload) << i;
        EXPECT_EQ(sa.resolution_probes, sb.resolution_probes) << i;
        EXPECT_EQ(sa.pauses, sb.pauses) << i;
        EXPECT_EQ(sa.dns_cache_hits, sb.dns_cache_hits) << i;
        EXPECT_EQ(sa.failovers, sb.failovers) << i;
        EXPECT_EQ(sa.failures.total(), sb.failures.total()) << i;
        EXPECT_EQ(sa.retry_histogram, sb.retry_histogram) << i;
    }
}

/// Writes the week's logs into `dir` as the Capture stage does; returns the
/// Simulate payload that names them.
std::string persist_week(const study::TraceOutputs& traces, const fs::path& dir) {
    const auto week = study::encode_traces(traces);
    for (std::size_t i = 0; i < week.logs.size(); ++i) {
        EXPECT_TRUE(io::write_file_atomic(
                        study::log_path(dir, traces.datasets[i].name), week.logs[i])
                        .ok());
    }
    return week.payload;
}

/// The merged value of a process-wide counter (0 before it registers).
std::uint64_t counter_value(std::string_view name) {
    for (const auto& e : ytcdn::util::metrics::Registry::global().snapshot().entries) {
        if (e.name == name) return e.value;
    }
    return 0;
}

}  // namespace

TEST(Checkpoint, FrameRoundTrips) {
    const auto dir = temp_dir("frame");
    const auto path = dir / "simulate.yck";
    const std::string payload = "stage bytes \x00\x01\x02 with nuls";
    ASSERT_TRUE(
        study::write_checkpoint(path, kKey, study::Stage::Simulate, payload).ok());
    const auto loaded = study::load_checkpoint(path, kKey, study::Stage::Simulate);
    ASSERT_TRUE(loaded.ok()) << loaded.error().what();
    EXPECT_EQ(loaded.value(), payload);
    fs::remove_all(dir);
}

TEST(Checkpoint, ValidationFollowsTheCorruptionTaxonomy) {
    const auto dir = temp_dir("taxonomy");
    const auto path = dir / "analyze.yck";
    ASSERT_TRUE(
        study::write_checkpoint(path, kKey, study::Stage::Analyze, "payload").ok());
    const std::string good = read_all(path);

    const auto reload = [&](std::string bytes) {
        EXPECT_TRUE(io::write_file_atomic(path, bytes).ok());
        return study::load_checkpoint(path, kKey, study::Stage::Analyze);
    };

    // Wrong magic.
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_EQ(reload(bad).error().code(), ErrorCode::BadMagic);

    // Unknown version (byte 4 is the low byte of the little-endian u32).
    bad = good;
    bad[4] = 99;
    EXPECT_EQ(reload(bad).error().code(), ErrorCode::UnsupportedVersion);

    // A flipped payload bit fails the whole-file CRC.
    bad = good;
    bad[bad.size() - 6] ^= 0x01;
    EXPECT_EQ(reload(bad).error().code(), ErrorCode::ChecksumMismatch);

    // Cut off mid-payload.
    EXPECT_EQ(reload(good.substr(0, good.size() - 8)).error().code(),
              ErrorCode::Truncated);

    // Right frame, wrong run / wrong stage.
    EXPECT_TRUE(io::write_file_atomic(path, good).ok());
    EXPECT_EQ(study::load_checkpoint(path, kKey + 1, study::Stage::Analyze)
                  .error().code(),
              ErrorCode::KeyMismatch);
    EXPECT_EQ(study::load_checkpoint(path, kKey, study::Stage::Render)
                  .error().code(),
              ErrorCode::KeyMismatch);
    fs::remove_all(dir);
}

TEST(Checkpoint, LoadOrQuarantineIsNeverFatal) {
    const auto dir = temp_dir("loq");
    const auto path = dir / "geolocate.yck";

    // Missing file: cold start, no warning.
    std::string warning;
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Geolocate,
                                                   &warning),
              std::nullopt);
    EXPECT_TRUE(warning.empty());

    // Corrupt file: nullopt, a warning, and the damage moved aside.
    ASSERT_TRUE(io::write_file_atomic(path, "not a checkpoint at all").ok());
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Geolocate,
                                                   &warning),
              std::nullopt);
    EXPECT_FALSE(warning.empty());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(dir / "geolocate.yck.corrupt.1"));

    // Valid file: payload comes back.
    ASSERT_TRUE(
        study::write_checkpoint(path, kKey, study::Stage::Geolocate, "ok").ok());
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Geolocate,
                                                   nullptr),
              std::optional<std::string>("ok"));
    fs::remove_all(dir);
}

TEST(CheckpointCodec, GeolocateRoundTripsBitExactly) {
    analysis::ServerDcMap map;
    analysis::DataCenterInfo frankfurt;
    frankfurt.name = "Frankfurt";
    frankfurt.location = {50.1109, 8.6821};
    frankfurt.continent = geo::Continent::Europe;
    frankfurt.rtt_ms = 17.25;
    frankfurt.distance_km = 304.75;
    analysis::DataCenterInfo ashburn;
    ashburn.name = "Ashburn";
    ashburn.location = {39.0438, -77.4874};
    ashburn.continent = geo::Continent::NorthAmerica;
    ashburn.rtt_ms = 92.5;
    ashburn.distance_km = 6553.0;
    const int f = map.add_data_center(frankfurt);
    const int a = map.add_data_center(ashburn);
    map.assign(net::IpAddress(0x0A000001u), f);
    map.assign(net::IpAddress(0xC0A80101u), a);
    map.assign(net::IpAddress(0x08080808u), f);

    const auto payload = study::encode_geolocate({map}, {1});
    // Sorted-assignment encoding: identical maps encode identically.
    EXPECT_EQ(payload, study::encode_geolocate({map}, {1}));

    std::vector<analysis::ServerDcMap> maps;
    std::vector<int> preferred;
    const auto decoded = study::decode_geolocate(payload, &maps, &preferred);
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    ASSERT_EQ(maps.size(), 1u);
    EXPECT_EQ(preferred, std::vector<int>{1});
    EXPECT_EQ(maps[0].num_data_centers(), 2u);
    EXPECT_EQ(maps[0].info(f).name, "Frankfurt");
    EXPECT_EQ(maps[0].info(f).rtt_ms, 17.25);
    EXPECT_EQ(maps[0].info(a).continent, geo::Continent::NorthAmerica);
    EXPECT_EQ(maps[0].dc_of(net::IpAddress(0x0A0000FFu)), f);  // same /24
    EXPECT_EQ(maps[0].dc_of(net::IpAddress(0xC0A80102u)), a);
    EXPECT_EQ(maps[0].dc_of(net::IpAddress(0x01020304u)), -1);
    EXPECT_FALSE(study::decode_geolocate("junk", &maps, &preferred).ok());
}

TEST(CheckpointCodec, ReportRoundTrips) {
    study::FullReport report;
    report.artifacts.push_back({"table1.txt", "rows\n"});
    report.artifacts.push_back({"fig07_bytes_vs_rtt.dat", "0 1\n2 3\n"});
    report.degraded.push_back("fig07_bytes_vs_rtt.dat");
    const auto decoded = study::decode_report(study::encode_report(report));
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    ASSERT_EQ(decoded.value().artifacts.size(), 2u);
    EXPECT_EQ(decoded.value().artifacts[1].name, "fig07_bytes_vs_rtt.dat");
    EXPECT_EQ(decoded.value().artifacts[1].content, "0 1\n2 3\n");
    EXPECT_EQ(decoded.value().degraded, report.degraded);
    EXPECT_FALSE(study::decode_report("???").ok());
}

TEST(CheckpointCodec, TracesRoundTrip) {
    const auto run = study::run_study(tiny_config());
    const ytcdn::test::ScratchDir dir;
    const std::string payload = persist_week(run.traces, dir.path());
    const auto decoded = study::decode_traces(payload, dir.path());
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    expect_traces_equal(run.traces, decoded.value());
    // Byte-stable: the decoded week encodes to the same payload and logs.
    const auto again = study::encode_traces(decoded.value());
    EXPECT_EQ(again.payload, payload);
    for (std::size_t i = 0; i < again.logs.size(); ++i) {
        EXPECT_EQ(again.logs[i],
                  read_all(study::log_path(dir.path(), run.traces.datasets[i].name)));
    }
    // The payload is counters and CRCs only: it does not grow with the week.
    EXPECT_LT(payload.size(), 2048u);
    EXPECT_FALSE(study::decode_traces(payload + "tail", dir.path()).ok());
    EXPECT_FALSE(
        study::decode_traces(payload.substr(0, payload.size() / 2), dir.path()).ok());
}

// The bench trace snapshot cache writes the week as a Simulate-stage frame
// keyed by config_fingerprint beside the week's logs (bench/bench_common.cpp).

TEST(Snapshot, AssembledRunMatchesSimulatedRun) {
    // The cache contract: a bench that loads the cached week and re-derives
    // maps/preferred renders the exact artifacts of a fresh simulation.
    const auto cfg = tiny_config();
    const auto fresh = study::run_study(cfg);
    const auto dir = temp_dir("cache_assemble");
    const auto path = dir / "simulate.yck";
    const auto key = study::config_fingerprint(cfg);
    ASSERT_TRUE(study::write_checkpoint(path, key, study::Stage::Simulate,
                                        persist_week(fresh.traces, dir))
                    .ok());
    const auto payload = study::load_checkpoint(path, key, study::Stage::Simulate);
    ASSERT_TRUE(payload.ok()) << payload.error().what();
    auto traces = study::decode_traces(payload.value(), dir);
    ASSERT_TRUE(traces.ok()) << traces.error().what();

    ytcdn::util::ThreadPool pool(2);
    const auto assembled =
        study::assemble_study_run(cfg, std::move(traces).value(), pool);
    EXPECT_EQ(fresh.preferred, assembled.preferred);
    ASSERT_EQ(fresh.maps.size(), assembled.maps.size());
    study::ReportOptions opts;
    opts.include_table3 = false;  // CBG exercised elsewhere; keep the test fast
    EXPECT_EQ(study::make_full_report(fresh, pool, opts).render(),
              study::make_full_report(assembled, pool, opts).render());
    fs::remove_all(dir);
}

namespace {

/// A cache file written for tiny_config() is refused to `other`: their
/// fingerprints differ, so the frame's key does not match.
void expect_cache_refused_to(const study::StudyConfig& other) {
    const auto cfg = tiny_config();
    EXPECT_NE(study::config_fingerprint(cfg), study::config_fingerprint(other));
    const ytcdn::test::ScratchDir dir;
    const auto path = dir.path() / "trace.yck";
    ASSERT_TRUE(study::write_checkpoint(path, study::config_fingerprint(cfg),
                                        study::Stage::Simulate,
                                        study::encode_traces({}).payload)
                    .ok());
    const auto loaded = study::load_checkpoint(
        path, study::config_fingerprint(other), study::Stage::Simulate);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.error().code(), ErrorCode::KeyMismatch);
}

}  // namespace

TEST(Snapshot, SeedMismatchIsRejected) {
    auto other = tiny_config();
    other.seed ^= 1;
    expect_cache_refused_to(other);
}

TEST(Snapshot, ScaleMismatchIsRejected) {
    auto other = tiny_config();
    other.scale *= 1.0 + 1e-12;  // any representable drift counts
    expect_cache_refused_to(other);
}

TEST(Snapshot, SimulationKnobMismatchIsRejected) {
    auto other = tiny_config();
    other.feb2011_us_shift = true;
    expect_cache_refused_to(other);
    // Thread count never changes outputs, so it is not part of the key.
    other = tiny_config();
    other.threads = 3;
    EXPECT_EQ(study::config_fingerprint(other),
              study::config_fingerprint(tiny_config()));
}

TEST(Snapshot, TypedErrorsNameTheFailure) {
    // The cached week's payload decoder: every bound and every cut is a
    // typed error, never an exception or a huge allocation, and a log that
    // is missing, altered or damaged is rejected with its name.
    namespace util = ytcdn::util;
    const ytcdn::test::ScratchDir dir;
    const std::string empty_log = ytcdn::capture::write_binary_log_bytes({});
    ASSERT_TRUE(io::write_file_atomic(dir.path() / "EU2.yfl", empty_log).ok());
    // One vantage point, built field by field so each case can lie in
    // exactly one place.
    const auto payload = [](std::uint32_t vps, std::string_view name,
                            std::uint32_t name_len, std::uint32_t histogram_len,
                            std::uint64_t log_size, std::uint32_t log_crc) {
        std::string buf;
        util::put<std::uint64_t>(buf, 9);  // events_processed
        util::put<std::uint64_t>(buf, 0);  // faults_injected
        util::put(buf, vps);
        util::put(buf, name_len);
        buf += name;
        for (int i = 0; i < 18; ++i) util::put<std::uint64_t>(buf, i);
        util::put(buf, histogram_len);
        util::put<std::uint64_t>(buf, 4);  // the one histogram bucket
        for (int i = 0; i < 3; ++i) util::put<std::uint64_t>(buf, 100 + i);
        util::put(buf, log_size);
        util::put(buf, log_crc);
        return buf;
    };
    const std::uint64_t size = empty_log.size();
    const std::uint32_t crc = util::crc32(empty_log);
    const auto code_of = [&](const std::string& bytes) {
        const auto r = study::decode_traces(bytes, dir.path());
        EXPECT_FALSE(r.ok());
        return r.ok() ? ErrorCode::InvalidArgument : r.error().code();
    };

    const std::string valid = payload(1, "EU2", 3, 1, size, crc);
    const auto decoded = study::decode_traces(valid, dir.path());
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    EXPECT_EQ(decoded.value().datasets[0].name, "EU2");
    EXPECT_EQ(decoded.value().player_stats[0].retry_histogram,
              std::vector<std::uint64_t>{4});
    EXPECT_EQ(decoded.value().flows_ignored, std::vector<std::uint64_t>{102});
    EXPECT_EQ(study::encode_traces(decoded.value()).payload, valid);

    EXPECT_EQ(code_of(""), ErrorCode::Truncated);
    EXPECT_EQ(code_of(payload(65, "EU2", 3, 1, size, crc)), ErrorCode::BadField);
    EXPECT_EQ(code_of(payload(1, "EU2", (1u << 20) + 1, 1, size, crc)),
              ErrorCode::BadField);
    EXPECT_EQ(code_of(payload(1, "EU2", 300, 1, size, crc)), ErrorCode::Truncated);
    EXPECT_EQ(code_of(payload(1, "EU2", 3, (1u << 20) + 1, size, crc)),
              ErrorCode::BadField);
    EXPECT_EQ(code_of(payload(1, "EU2", 3, 1u << 20, size, crc)),
              ErrorCode::Truncated);
    EXPECT_EQ(code_of(payload(1, "EU2", 3, 1, (1ull << 34) + 1, crc)),
              ErrorCode::BadField);
    EXPECT_EQ(code_of(valid + "x"), ErrorCode::CountMismatch);
    for (std::size_t n = 0; n < valid.size(); ++n) {
        EXPECT_EQ(code_of(valid.substr(0, n)), ErrorCode::Truncated) << "cut " << n;
    }
    // A name is a file stem under the log directory, never a path.
    for (const std::string_view name :
         {std::string_view("../EU2"), std::string_view(".."), std::string_view(""),
          std::string_view("E\0U", 3)}) {
        EXPECT_EQ(code_of(payload(1, name, static_cast<std::uint32_t>(name.size()),
                                  1, size, crc)),
                  ErrorCode::BadField)
            << name;
    }
    // The log must be there and be the one the payload describes.
    EXPECT_EQ(code_of(payload(1, "EU3", 3, 1, size, crc)), ErrorCode::Io);
    EXPECT_EQ(code_of(payload(1, "EU2", 3, 1, size + 1, crc)),
              ErrorCode::ChecksumMismatch);
    EXPECT_EQ(code_of(payload(1, "EU2", 3, 1, size, crc ^ 1)),
              ErrorCode::ChecksumMismatch);
    // A log that matches its CRC but is no YFL2 log is the flow-log
    // decoder's error, with the vantage point named.
    std::string bad_log = empty_log;
    bad_log[0] = 'X';
    ASSERT_TRUE(io::write_file_atomic(dir.path() / "BAD.yfl", bad_log).ok());
    const auto r = study::decode_traces(
        payload(1, "BAD", 3, 1, bad_log.size(), util::crc32(bad_log)), dir.path());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code(), ErrorCode::BadMagic);
    EXPECT_NE(std::string(r.error().what()).find("vantage point 'BAD'"),
              std::string::npos)
        << r.error().what();
}

TEST(Snapshot, CorruptCacheRegeneratesByteIdenticalReport) {
    // Corrupting the cached week must not abort the study, and the
    // regenerated run's report must be byte-identical to a cold run.
    const auto cfg = tiny_config();
    ytcdn::util::ThreadPool pool(2);
    study::ReportOptions opts;
    opts.include_table3 = false;  // CBG exercised elsewhere; keep the test fast
    const auto cold = study::run_study(cfg, pool);
    const std::string cold_report = study::make_full_report(cold, pool, opts).render();

    const auto dir = temp_dir("cache_regen");
    const auto path = dir / "simulate.yck";
    const auto key = study::config_fingerprint(cfg);
    ASSERT_TRUE(study::write_checkpoint(path, key, study::Stage::Simulate,
                                        persist_week(cold.traces, dir))
                    .ok());
    std::string bytes = read_all(path);
    bytes.replace(64, 32, std::string(32, '\0'));
    ASSERT_TRUE(io::write_file_atomic(path, bytes).ok());

    // The bench flow: try the cache, fall back to simulating on quarantine.
    std::string warning;
    EXPECT_FALSE(study::load_or_quarantine_checkpoint(path, key,
                                                      study::Stage::Simulate,
                                                      &warning)
                     .has_value());
    EXPECT_NE(warning.find("quarantined"), std::string::npos) << warning;
    EXPECT_FALSE(fs::exists(path));
    const auto regenerated = study::run_study(cfg, pool);
    EXPECT_EQ(study::make_full_report(regenerated, pool, opts).render(),
              cold_report);
    fs::remove_all(dir);
}

TEST(Supervisor, HealthyRunCompletesAllStages) {
    const auto dir = temp_dir("healthy");
    auto opt = fast_options(dir);
    ytcdn::sim::Tracer tracer;
    opt.tracer = &tracer;
    study::Supervisor sup(small_config(), opt);
    const auto result = sup.run();
    ASSERT_TRUE(result.ok()) << result.error().what();
    const auto& r = result.value();
    EXPECT_TRUE(r.completed);
    ASSERT_EQ(r.stages.size(), study::kNumStages);
    for (const auto& s : r.stages) {
        EXPECT_TRUE(s.completed) << to_string(s.stage);
        EXPECT_EQ(s.attempts, 1) << to_string(s.stage);
        EXPECT_FALSE(s.from_checkpoint) << to_string(s.stage);
    }
    EXPECT_TRUE(r.degraded.empty());
    EXPECT_FALSE(read_all(r.report_path).empty());
    const std::string manifest = read_all(r.manifest_path);
    EXPECT_NE(manifest.find("status complete"), std::string::npos) << manifest;
    EXPECT_NE(manifest.find("stage simulate status=ok"), std::string::npos);
    EXPECT_NE(manifest.find("stage render status=ok"), std::string::npos);
    // Checkpoints for every stage that writes one; the Simulate frame holds
    // counters and log CRCs, not the week.
    const auto simulate = study::checkpoint_path(dir, study::Stage::Simulate);
    ASSERT_TRUE(fs::exists(simulate));
    EXPECT_LT(fs::file_size(simulate), 4096u);
    EXPECT_FALSE(fs::exists(study::checkpoint_path(dir, study::Stage::Capture)));
    EXPECT_TRUE(fs::exists(
        study::checkpoint_path(dir, study::Stage::Analyze)));

    // logs/ is the one copy of the week and a ytcdnd spool: each vantage
    // point's YFL2 log decodes bit-exactly to its records, and its .dcmap
    // reads back to its map.
    ytcdn::util::ThreadPool pool(2);
    ytcdn::sim::Tracer run_tracer;
    const auto run = study::run_study(small_config(), pool, &run_tracer);
    // The tracer saw the simulated week, event for event.
    EXPECT_GT(tracer.log().events.size(), 0u);
    EXPECT_EQ(ytcdn::sim::write_trace_bytes(tracer.log()),
              ytcdn::sim::write_trace_bytes(run_tracer.log()));
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& name = run.traces.datasets[i].name;
        const auto log = dir / "logs" / (name + ".yfl");
        EXPECT_EQ(read_all(log),
                  ytcdn::capture::write_binary_log_bytes(run.traces.datasets[i].records))
            << name;
        const auto records = ytcdn::capture::read_flow_log_result(log);
        ASSERT_TRUE(records.ok()) << records.error().what();
        expect_records_equal(records.value(), run.traces.datasets[i].records, name);

        std::ostringstream expected;
        analysis::write_dc_map(expected, run.maps[i]);
        const std::string map_text = read_all(dir / "logs" / (name + ".dcmap"));
        EXPECT_EQ(map_text, expected.str()) << name;
        std::istringstream is(map_text);
        const auto map = analysis::read_dc_map(is);
        ASSERT_EQ(map.num_data_centers(), run.maps[i].num_data_centers()) << name;
        for (std::size_t d = 0; d < map.num_data_centers(); ++d) {
            const int dc = static_cast<int>(d);
            EXPECT_EQ(map.info(dc).name, run.maps[i].info(dc).name) << name;
        }
        EXPECT_EQ(map.assignments(), run.maps[i].assignments()) << name;
    }
    fs::remove_all(dir);
}

TEST(Supervisor, FingerprintCoversConfigAndReportOptions) {
    const auto dir = temp_dir("fp");
    const study::Supervisor base(small_config(), fast_options(dir));
    const study::Supervisor other_seed(small_config(1), fast_options(dir));
    auto with_t3 = fast_options(dir);
    with_t3.report.include_table3 = true;
    const study::Supervisor other_report(small_config(), with_t3);
    EXPECT_NE(base.run_fingerprint(), other_seed.run_fingerprint());
    EXPECT_NE(base.run_fingerprint(), other_report.run_fingerprint());
    EXPECT_EQ(base.run_fingerprint(),
              study::Supervisor(small_config(), fast_options(dir))
                  .run_fingerprint());
    fs::remove_all(dir);
}

TEST(Supervisor, InterruptedRunResumesToIdenticalReport) {
    // Reference: one uninterrupted run.
    const auto ref_dir = temp_dir("resume_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();
    const std::string ref_report = read_all(ref.value().report_path);

    // Interrupt after every possible stage boundary, then resume. After
    // Simulate alone (k = 1) the week is not on disk yet (the logs are the
    // Capture stage's output), so the resume re-simulates it; after
    // Capture, both stages resume from the logs, each read once and held
    // whole. Resuming after Geolocate (k = 3) takes the maps and preferred
    // data centers from its checkpoint and Analyze folds the logs read
    // back, through the same fold_study as a fresh run.
    for (std::size_t k = 1; k < study::kNumStages; ++k) {
        const auto dir = temp_dir("resume_" + std::to_string(k));
        auto first = fast_options(dir);
        first.max_stages = k;
        const auto interrupted =
            study::Supervisor(small_config(), first).run();
        ASSERT_TRUE(interrupted.ok()) << interrupted.error().what();
        EXPECT_FALSE(interrupted.value().completed);
        EXPECT_NE(read_all(interrupted.value().manifest_path)
                      .find("status interrupted"),
                  std::string::npos);

        auto second = fast_options(dir);
        second.resume = true;
        const auto resumed = study::Supervisor(small_config(), second).run();
        ASSERT_TRUE(resumed.ok()) << resumed.error().what();
        EXPECT_TRUE(resumed.value().completed);
        std::size_t from_checkpoint = 0;
        for (const auto& s : resumed.value().stages) {
            from_checkpoint += s.from_checkpoint ? 1 : 0;
        }
        EXPECT_EQ(from_checkpoint, k == 1 ? 0 : k) << "interrupted after " << k;
        EXPECT_EQ(read_all(resumed.value().report_path), ref_report)
            << "resume after stage " << k << " diverged";
        fs::remove_all(dir);
    }
    fs::remove_all(ref_dir);
}

TEST(Supervisor, CorruptCheckpointIsQuarantinedAndRecomputed) {
    const auto ref_dir = temp_dir("corrupt_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok());
    const std::string ref_report = read_all(ref.value().report_path);

    const auto dir = temp_dir("corrupt");
    auto first = fast_options(dir);
    first.max_stages = 3;
    ASSERT_TRUE(study::Supervisor(small_config(), first).run().ok());
    // Flip a byte in the geolocate checkpoint.
    const auto ck = study::checkpoint_path(dir, study::Stage::Geolocate);
    std::string bytes = read_all(ck);
    bytes[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(io::write_file_atomic(ck, bytes).ok());

    auto second = fast_options(dir);
    second.resume = true;
    const auto resumed = study::Supervisor(small_config(), second).run();
    ASSERT_TRUE(resumed.ok()) << resumed.error().what();
    EXPECT_FALSE(resumed.value().warnings.empty());
    EXPECT_TRUE(fs::exists(dir / "checkpoints" / "geolocate.yck.corrupt.1"));
    // Simulate and capture still resume; geolocate recomputes; bytes
    // unchanged.
    EXPECT_TRUE(resumed.value().stages[0].from_checkpoint);
    EXPECT_TRUE(resumed.value().stages[1].from_checkpoint);
    EXPECT_FALSE(resumed.value().stages[2].from_checkpoint);
    EXPECT_EQ(read_all(resumed.value().report_path), ref_report);
    fs::remove_all(dir);
    fs::remove_all(ref_dir);
}

TEST(Supervisor, DamagedLogReSimulatesTheWeek) {
    // The logs are the persisted week: one that is truncated or has a
    // flipped byte no longer matches the Simulate payload's size and CRC,
    // so the resume warns, re-simulates, rewrites the log and renders the
    // same report.
    const auto ref_dir = temp_dir("damaged_log_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();
    const std::string ref_report = read_all(ref.value().report_path);
    const auto ref_log = ref_dir / "logs" / "EU2.yfl";
    const std::string good = read_all(ref_log);

    for (const bool truncate : {true, false}) {
        const auto dir = temp_dir(truncate ? "log_truncated" : "log_flipped");
        auto first = fast_options(dir);
        first.max_stages = 2;
        ASSERT_TRUE(study::Supervisor(small_config(), first).run().ok());
        const auto log = dir / "logs" / "EU2.yfl";
        ASSERT_EQ(read_all(log), good);
        std::string bytes = good;
        if (truncate) {
            bytes.resize(bytes.size() - 7);
        } else {
            bytes[bytes.size() / 2] ^= 0x01;
        }
        ASSERT_TRUE(io::write_file_atomic(log, bytes).ok());

        auto second = fast_options(dir);
        second.resume = true;
        const auto resumed = study::Supervisor(small_config(), second).run();
        ASSERT_TRUE(resumed.ok()) << resumed.error().what();
        ASSERT_FALSE(resumed.value().warnings.empty());
        EXPECT_NE(resumed.value().warnings[0].find("EU2.yfl"), std::string::npos)
            << resumed.value().warnings[0];
        EXPECT_FALSE(resumed.value().stages[0].from_checkpoint);
        EXPECT_FALSE(resumed.value().stages[1].from_checkpoint);
        EXPECT_EQ(read_all(log), good);
        EXPECT_EQ(read_all(resumed.value().report_path), ref_report);
        fs::remove_all(dir);
    }
    fs::remove_all(ref_dir);
}

TEST(Supervisor, LogWriteFailureRetriesCaptureAlone) {
    // The logs stay in memory until they are on disk: a failed log write
    // retries the Capture stage, never the simulation.
    const auto ref_dir = temp_dir("log_write_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();

    auto plan = std::make_shared<io::FaultPlan>(7);
    io::FaultRule rule;
    rule.probability = 1.0;
    rule.glob = "*.yfl*";
    rule.max_faults = 1;
    plan->add(rule);
    const auto dir = temp_dir("log_write");
    const auto result = [&] {
        io::ScopedFaultPlan scoped(plan);
        return study::Supervisor(small_config(), fast_options(dir)).run();
    }();
    ASSERT_TRUE(result.ok()) << result.error().what();
    EXPECT_EQ(plan->counts().injected, 1u);
    const auto& stages = result.value().stages;
    EXPECT_EQ(stages[0].attempts, 1);
    EXPECT_EQ(stages[1].attempts, 2);
    EXPECT_TRUE(stages[1].completed);
    EXPECT_TRUE(result.value().degraded.empty());
    EXPECT_EQ(read_all(dir / "logs" / "EU2.yfl"), read_all(ref_dir / "logs" / "EU2.yfl"));
    EXPECT_EQ(read_all(result.value().report_path), read_all(ref.value().report_path));
    fs::remove_all(dir);
    fs::remove_all(ref_dir);
}

TEST(Supervisor, AnalyzeOpensNoLog) {
    // Geolocate and Analyze fold the frames Simulate built: a fresh run in
    // which every read of a log would fail renders the reference report,
    // and not one read of a log is even attempted.
    const auto ref_dir = temp_dir("no_read_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();

    auto plan = std::make_shared<io::FaultPlan>(3);
    io::FaultRule rule;
    rule.probability = 1.0;
    rule.ops = io::op_bit(io::Op::Read);
    rule.glob = "*.yfl";
    plan->add(rule);
    const auto dir = temp_dir("no_read");
    const auto result = [&] {
        io::ScopedFaultPlan scoped(plan);
        return study::Supervisor(small_config(), fast_options(dir)).run();
    }();
    ASSERT_TRUE(result.ok()) << result.error().what();
    EXPECT_EQ(plan->counts().injected, 0u);
    EXPECT_TRUE(result.value().degraded.empty());
    EXPECT_EQ(read_all(result.value().report_path), read_all(ref.value().report_path));
    fs::remove_all(dir);
    fs::remove_all(ref_dir);
}

TEST(Supervisor, UnwritableLogsDegradeCaptureAndStillRender) {
    // The frames stay in memory when no log can be written: a non-strict
    // run degrades `capture`, leaves no log or temp file behind and still
    // renders the reference report.
    const char* strict = std::getenv("YTCDN_STRICT_ARTIFACTS");
    const std::string saved = strict ? strict : "";
    ::unsetenv("YTCDN_STRICT_ARTIFACTS");
    struct RestoreStrict {
        const char* had;
        const std::string& value;
        ~RestoreStrict() {
            if (had != nullptr) ::setenv("YTCDN_STRICT_ARTIFACTS", value.c_str(), 1);
        }
    } restore{strict, saved};

    const auto ref_dir = temp_dir("no_write_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();

    auto plan = std::make_shared<io::FaultPlan>(4);
    io::FaultRule rule;
    rule.probability = 1.0;
    rule.ops = io::op_bit(io::Op::Write);
    rule.glob = "*.yfl*";
    plan->add(rule);
    const auto dir = temp_dir("no_write");
    const auto result = [&] {
        io::ScopedFaultPlan scoped(plan);
        return study::Supervisor(small_config(), fast_options(dir)).run();
    }();
    ASSERT_TRUE(result.ok()) << result.error().what();
    EXPECT_TRUE(result.value().completed);
    const auto& capture = result.value().stages[1];
    EXPECT_TRUE(capture.degraded);
    EXPECT_EQ(capture.attempts, 3);
    EXPECT_EQ(result.value().degraded, std::vector<std::string>{"capture"});
    EXPECT_EQ(read_all(result.value().report_path), read_all(ref.value().report_path));
    for (const auto& entry : fs::directory_iterator(dir / "logs")) {
        EXPECT_EQ(entry.path().extension(), ".dcmap") << entry.path();
    }
    fs::remove_all(dir);
    fs::remove_all(ref_dir);
}

TEST(Supervisor, ChaosRunAtOnePercentStillCompletes) {
    // The acceptance gate: p=0.01 faults across every op, three attempts
    // per stage — the run must finish with a complete manifest, possibly
    // with retries and degraded artifacts recorded. Graceful degradation is
    // the contract under test, so strict mode (which deliberately turns
    // every degradation into a failure) is scoped out for this one case.
    const char* strict = std::getenv("YTCDN_STRICT_ARTIFACTS");
    const std::string saved = strict ? strict : "";
    ::unsetenv("YTCDN_STRICT_ARTIFACTS");
    struct RestoreStrict {
        const char* had;
        const std::string& value;
        ~RestoreStrict() {
            if (had != nullptr) ::setenv("YTCDN_STRICT_ARTIFACTS",
                                         value.c_str(), 1);
        }
    } restore{strict, saved};

    auto plan = std::make_shared<io::FaultPlan>(2026);
    {
        io::FaultRule r;
        r.kind = io::FaultKind::Eio;
        r.probability = 0.01;
        plan->add(r);
        r.kind = io::FaultKind::Enospc;
        plan->add(r);
    }
    const auto dir = temp_dir("chaos");
    auto opt = fast_options(dir);
    opt.policy.attempts = 3;
    // Only the run is under the plan; the checks below read what it left.
    const auto result = [&] {
        io::ScopedFaultPlan scoped(plan);
        return study::Supervisor(small_config(), opt).run();
    }();
    ASSERT_TRUE(result.ok()) << result.error().what();
    EXPECT_TRUE(result.value().completed);
    const auto counts = plan->counts();
    EXPECT_GT(counts.checked, 0u);
    const std::string manifest = read_all(result.value().manifest_path);
    EXPECT_NE(manifest.find("status complete"), std::string::npos) << manifest;
    fs::remove_all(dir);
}

TEST(Supervisor, SoftGuardsReportWithoutAborting) {
    const auto dir = temp_dir("guards");
    auto opt = fast_options(dir);
    // Impossible budgets: every stage overruns both guards, yet the run
    // still completes — guards are report-only.
    opt.policy.deadline_s = 1e-9;
    opt.policy.max_rss_mib = 0.001;
    const auto result = study::Supervisor(small_config(), opt).run();
    ASSERT_TRUE(result.ok()) << result.error().what();
    EXPECT_TRUE(result.value().completed);
    bool any_deadline = false;
    bool any_rss = false;
    for (const auto& s : result.value().stages) {
        any_deadline = any_deadline || s.deadline_exceeded;
        any_rss = any_rss || s.rss_exceeded;
    }
    EXPECT_TRUE(any_deadline);
    EXPECT_TRUE(any_rss);
    const std::string manifest = read_all(result.value().manifest_path);
    EXPECT_NE(manifest.find("deadline_exceeded=1"), std::string::npos);
    EXPECT_NE(manifest.find("rss_exceeded=1"), std::string::npos);
    fs::remove_all(dir);
}

TEST(Supervisor, UnusableRunDirectoryFailsBeforeAnyStage) {
    // A run directory below a regular file cannot be created: the run must
    // say so up front, not after simulating the week.
    const auto dir = temp_dir("unusable");
    ASSERT_TRUE(io::write_file_atomic(dir / "file", "not a directory").ok());
    const std::uint64_t stages_before = counter_value("supervisor.stages_run");
    const auto result =
        study::Supervisor(small_config(), fast_options(dir / "file" / "run")).run();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::Io);
    EXPECT_NE(std::string(result.error().what()).find((dir / "file").string()),
              std::string::npos)
        << result.error().what();
    EXPECT_EQ(counter_value("supervisor.stages_run"), stages_before);
    fs::remove_all(dir);
}

TEST(Supervisor, FaultScheduleRunNeverTouchesCheckpoints) {
    // config_fingerprint does not cover the fault schedule, so a fault run
    // must neither write checkpoints nor resume from a healthy run's: this
    // is the only guard against serving a healthy week to a fault run.
    auto faulty = small_config();
    faulty.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
        "Dallas", 2.0 * ytcdn::sim::kDay, 1.0 * ytcdn::sim::kDay);

    const auto fresh_dir = temp_dir("fault_fresh");
    const auto fresh = study::Supervisor(faulty, fast_options(fresh_dir)).run();
    ASSERT_TRUE(fresh.ok()) << fresh.error().what();
    for (const auto& entry : fs::directory_iterator(fresh_dir / "checkpoints")) {
        ADD_FAILURE() << "fault run wrote " << entry.path();
    }
    const std::string fault_report = read_all(fresh.value().report_path);

    const auto dir = temp_dir("fault_over_healthy");
    const auto healthy = study::Supervisor(small_config(), fast_options(dir)).run();
    ASSERT_TRUE(healthy.ok()) << healthy.error().what();
    ASSERT_TRUE(fs::exists(study::checkpoint_path(dir, study::Stage::Simulate)));
    ASSERT_NE(read_all(healthy.value().report_path), fault_report);

    auto resume = fast_options(dir);
    resume.resume = true;
    const auto resumed = study::Supervisor(faulty, resume).run();
    ASSERT_TRUE(resumed.ok()) << resumed.error().what();
    for (const auto& st : resumed.value().stages) {
        EXPECT_FALSE(st.from_checkpoint) << to_string(st.stage);
    }
    EXPECT_EQ(read_all(resumed.value().report_path), fault_report);
    fs::remove_all(dir);
    fs::remove_all(fresh_dir);
}

namespace {

/// A Simulate payload in the layout before the logs became the persisted
/// week: each vantage point's (log size, CRC) pair is replaced by the
/// length-prefixed log itself.
std::string inline_logs_layout(const study::EncodedWeek& week) {
    namespace util = ytcdn::util;
    util::ByteReader r(week.payload);
    std::string out;
    std::string_view part;
    std::uint32_t n_vps = 0;
    std::uint32_t n = 0;
    EXPECT_TRUE(r.view(16, &part) && r.take(&n_vps));  // events, faults
    out += part;
    util::put(out, n_vps);
    for (std::uint32_t v = 0; v < n_vps; ++v) {
        EXPECT_TRUE(r.take(&n) && r.view(n + 18 * 8, &part));  // name, stats
        util::put(out, n);
        out += part;
        EXPECT_TRUE(r.take(&n) && r.view(n * 8 + 3 * 8, &part));  // histogram,
        util::put(out, n);                                       // counters
        out += part;
        EXPECT_TRUE(r.view(8 + 4, &part));  // log size + CRC, dropped
        util::put(out, static_cast<std::uint64_t>(week.logs[v].size()));
        out += week.logs[v];
    }
    EXPECT_TRUE(r.done());
    return out;
}

}  // namespace

TEST(Supervisor, OldLayoutSimulatePayloadIsReSimulated) {
    // Two older Simulate payloads still sit in valid frames, so the payload
    // decoder must reject them and the stage re-simulate to the same
    // report: the pre-checkpoint snapshot file nested whole in the payload
    // (the snapshot magic | u32 schema 4 | u64 config fingerprint | week |
    // CRC-32), and the week with its logs inlined as blobs.
    const auto ref_dir = temp_dir("old_layout_ref");
    const auto ref = study::Supervisor(small_config(), fast_options(ref_dir)).run();
    ASSERT_TRUE(ref.ok()) << ref.error().what();
    const std::string ref_report = read_all(ref.value().report_path);
    const auto week = study::encode_traces(study::run_study(small_config()).traces);

    std::string snapshot;
    ytcdn::util::put<std::uint32_t>(snapshot, 0x32535359);  // the snapshot magic
    ytcdn::util::put<std::uint32_t>(snapshot, 4);
    ytcdn::util::put(snapshot, study::config_fingerprint(small_config()));
    snapshot += week.payload;
    ytcdn::util::put(snapshot, ytcdn::util::crc32(snapshot));

    for (const std::string& old : {snapshot, inline_logs_layout(week)}) {
        const auto dir = temp_dir("old_layout");
        auto first = fast_options(dir);
        first.max_stages = 2;  // the logs are on disk
        study::Supervisor sup(small_config(), first);
        ASSERT_TRUE(sup.run().ok());
        const auto path = study::checkpoint_path(dir, study::Stage::Simulate);
        ASSERT_TRUE(study::write_checkpoint(path, sup.run_fingerprint(),
                                            study::Stage::Simulate, old)
                        .ok());

        auto second = fast_options(dir);
        second.resume = true;
        const auto resumed = study::Supervisor(small_config(), second).run();
        ASSERT_TRUE(resumed.ok()) << resumed.error().what();
        EXPECT_FALSE(resumed.value().stages[0].from_checkpoint);
        ASSERT_FALSE(resumed.value().warnings.empty());
        const std::string& warning = resumed.value().warnings[0];
        EXPECT_NE(warning.find("simulate checkpoint payload rejected"),
                  std::string::npos)
            << warning;
        // Rejected by the payload's own checks, before any log is opened.
        EXPECT_EQ(warning.find("flow log"), std::string::npos) << warning;
        EXPECT_EQ(read_all(resumed.value().report_path), ref_report);
        fs::remove_all(dir);
    }
    fs::remove_all(ref_dir);
}
