// Format goldens for every on-disk codec: YFL2 flow logs, YTR1 traces, YCK1
// stage checkpoints and their payloads (the simulated week among them), the
// ServiceAggregates payload and ytcdnd's service checkpoint file, plus the
// fingerprints that key the checkpoints.
//
// Encoders are pinned by a 64-bit FNV-1a hash and the size of their bytes
// over fixed, hand-built inputs. A CRC-32 would pin nothing for the formats
// that end in a CRC-32 of every prior byte: the CRC of such a frame is the
// same constant residue whatever its contents. Decoders are pinned by a
// transcript with one line per input: the error code and what(), or "ok".
// The inputs are every tests/fuzz/corpus fixture, every proper prefix and
// every single-byte flip of a small valid stream of the format. So a change
// to any codec must keep every byte it writes and every error it reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/binary_log.hpp"
#include "capture/log_io.hpp"
#include "service/aggregates.hpp"
#include "service/service.hpp"
#include "sim/tracer.hpp"
#include "study/checkpoint.hpp"
#include "study/supervisor.hpp"
#include "test_support.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace fs = std::filesystem;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
using ytcdn::test::file_bytes;
using ytcdn::test::put_file;
using ytcdn::test::ScratchDir;

namespace {

struct Digest {
    std::uint64_t fnv = 0xcbf29ce484222325ull;
    std::size_t size = 0;
    friend bool operator==(const Digest&, const Digest&) = default;
};

Digest digest(std::string_view bytes) {
    Digest d{.size = bytes.size()};
    for (const char c : bytes) {
        d.fnv = (d.fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    }
    return d;
}

std::ostream& operator<<(std::ostream& os, const Digest& d) {
    return os << "{0x" << std::hex << d.fnv << std::dec << "ull, " << d.size << "}";
}

/// `text` with the scratch directory's path replaced by "DIR".
std::string anonymize(const ScratchDir& dir, std::string text) {
    const std::string path = dir.path().string();
    for (auto at = text.find(path); at != std::string::npos; at = text.find(path)) {
        text.replace(at, path.size(), "DIR");
    }
    return text;
}

template <typename T>
std::string outcome(const ytcdn::util::Result<T>& r) {
    if (r.ok()) return "ok\n";
    return std::to_string(static_cast<int>(r.error().code())) + " " +
           r.error().what() + "\n";
}

/// The decoder's transcript over the corpus, then every cut and every flip
/// of `valid`. A decoder that throws instead of returning a typed error is
/// recorded too.
std::string transcript(std::string_view valid,
                       const std::function<std::string(const std::string&)>& typed) {
    const auto decode = [&typed](const std::string& bytes) -> std::string {
        try {
            return typed(bytes);
        } catch (const std::exception& e) {
            return std::string("threw ") + e.what() + "\n";
        }
    };
    std::vector<fs::path> fixtures;
    for (const auto& entry : fs::directory_iterator(YTCDN_CORPUS_DIR)) {
        fixtures.push_back(entry.path());
    }
    std::sort(fixtures.begin(), fixtures.end());
    std::string out;
    for (const auto& fixture : fixtures) {
        out += fixture.filename().string() + " " + decode(file_bytes(fixture));
    }
    for (std::size_t n = 0; n < valid.size(); ++n) {
        out += "cut " + std::to_string(n) + " " + decode(std::string(valid.substr(0, n)));
    }
    for (std::size_t i = 0; i < valid.size(); ++i) {
        std::string flipped(valid);
        flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
        out += "flip " + std::to_string(i) + " " + decode(flipped);
    }
    return out + "valid " + decode(std::string(valid));
}

// --- fixed inputs ------------------------------------------------------------

std::vector<capture::FlowRecord> flows(std::uint32_t n) {
    std::vector<capture::FlowRecord> out(n);
    for (std::uint32_t k = 0; k < n; ++k) {
        capture::FlowRecord& r = out[k];
        r.client_ip = ytcdn::net::IpAddress(0x0A000000u + (k * 7919u) % 4093u);
        r.server_ip = ytcdn::net::IpAddress(0xC0A80000u + (k * 104729u) % 65521u);
        r.start = 0.25 * k;
        r.end = r.start + 0.5 + k % 13;
        r.bytes = 400 + std::uint64_t{k} * 9973u;
        r.video = ytcdn::cdn::VideoId(0x1234'5678'0000ull + k % 97u);
        r.resolution = ytcdn::cdn::kAllResolutions[k % 5];
    }
    return out;
}

std::string yfl2_bytes(const std::vector<capture::FlowRecord>& records) {
    std::ostringstream os;
    capture::write_binary_log(os, records);
    return os.str();
}

std::string ytr1_bytes(std::uint32_t n) {
    sim::TraceLog log;
    log.strings = {"Dallas", "dc-down", "\"quoted\"\n"};
    for (std::uint32_t i = 0; i < n; ++i) {
        sim::TraceEvent e;
        e.time = 0.125 * i;
        e.seq = 3 * i;
        e.session = i % 11;
        // Stride 13 puts a fault event second, so even the small stream
        // exercises the string-table reference check.
        e.type = static_cast<sim::TraceEventType>((13 * i) % sim::kNumTraceEventTypes);
        const bool names_a_string = e.type == sim::TraceEventType::Fault ||
                                    e.type == sim::TraceEventType::Guard;
        e.a = std::int64_t{i} - 7;
        e.b = names_a_string ? i % 3 : -std::int64_t{i};
        e.x = 1.5 * i;
        e.vp = static_cast<std::uint8_t>(i % 5);
        e.code = static_cast<std::uint16_t>(i % 4);
        log.events.push_back(e);
    }
    return sim::write_trace_bytes(log);
}

study::TraceOutputs fixed_week(std::uint32_t records_per_vp) {
    study::TraceOutputs traces;
    traces.events_processed = 12345;
    for (std::uint32_t v = 0; v < 2; ++v) {
        traces.datasets.push_back({v == 0 ? "EU1-ADSL" : "US-Campus",
                                   flows(records_per_vp + v)});
        ytcdn::workload::Player::Stats stats;
        stats.sessions = 10 + v;
        stats.video_flows = 20 + v;
        stats.control_flows = 3;
        stats.redirects_miss = 4;
        stats.failures.timeout = v;
        stats.retry_histogram = {5, 1, v};
        traces.player_stats.push_back(stats);
        traces.requests_generated.push_back(100 + v);
        traces.flows_observed.push_back(200 + v);
        traces.flows_ignored.push_back(7 * v);
    }
    return traces;
}

/// The week's Simulate payload, with its logs written into `dir`.
std::string simulate_payload(std::uint32_t records_per_vp, const fs::path& dir) {
    const auto traces = fixed_week(records_per_vp);
    const auto week = study::encode_traces(traces);
    for (std::size_t i = 0; i < week.logs.size(); ++i) {
        put_file(study::log_path(dir, traces.datasets[i].name), week.logs[i]);
    }
    return week.payload;
}

analysis::ServerDcMap two_dc_map() {
    analysis::ServerDcMap map;
    const int near = map.add_data_center(
        {"near", {48.85, 2.35}, ytcdn::geo::Continent::Europe, 10.0, 120.5});
    const int far = map.add_data_center(
        {"far", {40.71, -74.0}, ytcdn::geo::Continent::NorthAmerica, 30.0, 5837.25});
    map.assign(ytcdn::net::IpAddress(0xC0A80000u), near);
    map.assign(ytcdn::net::IpAddress(0xC0A80100u), far);
    map.assign(ytcdn::net::IpAddress(0xC0A80200u), near);
    return map;
}

std::string geolocate_payload() {
    return study::encode_geolocate({two_dc_map(), analysis::ServerDcMap{}}, {1, -1});
}

std::string report_payload() {
    study::FullReport report;
    report.artifacts.push_back({"table1", "== Table I ==\nrow 1\n"});
    report.artifacts.push_back({"fig7", std::string(300, 'x')});
    report.degraded.push_back("fig7");
    return study::encode_report(report);
}

std::string aggregates_payload() {
    ytcdn::service::ServiceAggregates agg(1.0);
    agg.set_map(two_dc_map());
    const auto records = flows(24);
    for (std::size_t i = 0; i < records.size(); ++i) {
        agg.add(i % 3 == 0 ? "eu1" : "us1", records[i]);
    }
    return agg.encode();
}

// --- encoders ----------------------------------------------------------------

TEST(FormatGolden, Yfl2Encoders) {
    const ScratchDir dir;
    const auto records = flows(5000);  // two CRC blocks, the second partial
    const std::string batch = yfl2_bytes(records);
    EXPECT_EQ(digest(batch), (Digest{0x725b45789f258275ull, 205052}));
    EXPECT_EQ(digest(yfl2_bytes({})), (Digest{0x3628829692da443full, 36}));

    capture::write_binary_log(dir.path() / "batch.yfl", records);
    EXPECT_EQ(file_bytes(dir.path() / "batch.yfl"), batch);
    auto writer = capture::FlowLogWriter::create(dir.path() / "stream.yfl");
    ASSERT_TRUE(writer.ok()) << writer.error().what();
    for (const auto& r : records) ASSERT_TRUE(writer.value().add(r).ok());
    ASSERT_TRUE(writer.value().finish().ok());
    EXPECT_EQ(file_bytes(dir.path() / "stream.yfl"), batch);
}

TEST(FormatGolden, Ytr1AndSimulateEncoders) {
    EXPECT_EQ(digest(ytr1_bytes(1500)), (Digest{0x80e7aa2d8137b86ull, 84098}));
    EXPECT_EQ(digest(ytr1_bytes(0)), (Digest{0xfdaf0ffb8c0d7b03ull, 82}));
    // The Simulate payload holds counters and each log's size and CRC; the
    // logs are the YFL2 encoder's bytes.
    const auto week = study::encode_traces(fixed_week(4500));
    EXPECT_EQ(digest(week.payload), (Digest{0xc7928206faac8124ull, 461}));
    ASSERT_EQ(week.logs.size(), 2u);
    EXPECT_EQ(week.logs[0], yfl2_bytes(flows(4500)));
    EXPECT_EQ(week.logs[1], yfl2_bytes(flows(4501)));
}

TEST(FormatGolden, FingerprintsOfAFixedConfig) {
    // Every checkpoint key, the bench cache's file name and the manifest's
    // fingerprint line derive from these hashes.
    study::StudyConfig config;
    config.seed = 42;
    config.scale = 0.01;
    EXPECT_EQ(study::config_fingerprint(config), 0x69a838e87ba25391ull);
    study::SupervisorOptions options;
    options.run_dir = "unused";
    EXPECT_EQ(study::Supervisor(config, options).run_fingerprint(),
              0x415ad679bcb5f296ull);
    EXPECT_EQ(ytcdn::service::Service(ytcdn::service::ServiceOptions{}).fingerprint(),
              0x2605ab7bc82ada66ull);
}

TEST(FormatGolden, Yck1AndServiceEncoders) {
    const ScratchDir dir;
    const auto frame = [&](study::Stage stage, const std::string& payload) {
        const auto path = dir.path() / "stage.yck";
        EXPECT_TRUE(study::write_checkpoint(path, 0x0123'4567'89AB'CDEFull, stage,
                                            payload)
                        .ok());
        return digest(file_bytes(path));
    };
    EXPECT_EQ(frame(study::Stage::Geolocate, geolocate_payload()),
              (Digest{0x8c8934e185bc7ae7ull, 165}));
    EXPECT_EQ(frame(study::Stage::Analyze, report_payload()),
              (Digest{0xb08ae534b4f4555aull, 402}));
    EXPECT_EQ(frame(study::Stage::Service, aggregates_payload()),
              (Digest{0xc0606bf1c0ebbb83ull, 1308}));
    EXPECT_EQ(digest(aggregates_payload()), (Digest{0x15d6dc1a31e9e7ffull, 1276}));
}

TEST(FormatGolden, ServiceCheckpointOfOnceRun) {
    const ScratchDir dir;
    const auto spool = dir.path() / "spool";
    fs::create_directories(spool);
    const auto records = flows(60);
    capture::write_any_log(spool / "eu1-0001.yfl",
                           {records.begin(), records.begin() + 25});
    capture::write_any_log(spool / "eu1-0002.yfl",
                           {records.begin() + 25, records.end()});
    capture::write_any_log(spool / "us1-0001.tsv", records);
    std::ostringstream map_text;
    analysis::write_dc_map(map_text, two_dc_map());
    put_file(spool / "vantage.dcmap", map_text.str());

    ytcdn::service::ServiceOptions opt;
    opt.spool_dir = spool;
    opt.run_dir = dir.path() / "run";
    opt.once = true;
    opt.threads = 1;
    opt.tick_ms = 1;
    auto report = ytcdn::service::Service(opt).run();
    ASSERT_TRUE(report.ok()) << report.error().what();
    ASSERT_EQ(report.value().files_ingested, 3u);
    const auto path = study::checkpoint_path(opt.run_dir, study::Stage::Service);
    EXPECT_EQ(digest(file_bytes(path)), (Digest{0xe167f775593b1cb4ull, 3670}));
}

// --- decoders ----------------------------------------------------------------

TEST(FormatGolden, Yfl2Readers) {
    const std::string valid = yfl2_bytes(flows(4));
    EXPECT_EQ(digest(transcript(valid,
                                [](const std::string& bytes) {
                                    std::istringstream is(bytes);
                                    return outcome(capture::read_binary_log_result(is));
                                })),
              (Digest{0xdd9e4f8f6961dfbfull, 28823}));
    // The path reader adds "read_binary_log <path>" context.
    const ScratchDir dir;
    const auto path = dir.path() / "log.yfl";
    const std::string t = transcript(valid, [&](const std::string& bytes) {
        put_file(path, bytes);
        return anonymize(dir, outcome(capture::read_binary_log_result(path)));
    });
    fs::remove(path);
    EXPECT_EQ(digest(t + anonymize(dir, outcome(capture::read_binary_log_result(path)))),
              (Digest{0x6d7ca81d234c31b6ull, 41698}));
}

TEST(FormatGolden, Ytr1Readers) {
    EXPECT_EQ(digest(transcript(ytr1_bytes(4),
                                [](const std::string& bytes) {
                                    return outcome(sim::read_trace_bytes(bytes));
                                })),
              (Digest{0xbfb811103336722cull, 30564}));
    const std::string t = transcript(ytr1_bytes(4), [](const std::string& bytes) {
        auto r = sim::salvage_trace_bytes(bytes);
        if (!r.ok()) return outcome(r);
        return "ok complete=" + std::to_string(r.value().complete) + " events=" +
               std::to_string(r.value().log.events.size()) + " " + r.value().note + "\n";
    });
    EXPECT_EQ(digest(t), (Digest{0xdadcb417e0a92d5cull, 42971}));
}

// The Simulate payload decoder, reading the logs the payload names.
TEST(FormatGolden, SimulatePayloadDecoder) {
    const ScratchDir dir;
    const std::string t = transcript(
        simulate_payload(3, dir.path()), [&](const std::string& bytes) {
            return anonymize(dir, outcome(study::decode_traces(bytes, dir.path())));
        });
    EXPECT_EQ(t.find("threw"), std::string::npos);
    EXPECT_EQ(digest(t), (Digest{0xa50960b200d62c08ull, 36004}));
}

TEST(FormatGolden, Yck1Decoders) {
    const ScratchDir dir;
    const auto path = dir.path() / "stage.yck";
    const auto stage = study::Stage::Geolocate;
    ASSERT_TRUE(study::write_checkpoint(path, 77, stage, geolocate_payload()).ok());
    std::string t = transcript(file_bytes(path), [&](const std::string& bytes) {
        put_file(path, bytes);
        return anonymize(dir, outcome(study::load_checkpoint(path, 77, stage)));
    });
    t += transcript(geolocate_payload(), [](const std::string& bytes) {
        std::vector<analysis::ServerDcMap> maps;
        std::vector<int> preferred;
        return outcome(study::decode_geolocate(bytes, &maps, &preferred));
    });
    t += transcript(report_payload(), [](const std::string& bytes) {
        return outcome(study::decode_report(bytes));
    });
    EXPECT_EQ(digest(t), (Digest{0x225aaf244e70bec2ull, 64373}));
}

TEST(FormatGolden, ServiceAggregatesDecoder) {
    const std::string t = transcript(aggregates_payload(), [](const std::string& bytes) {
        return outcome(ytcdn::service::ServiceAggregates::decode(bytes));
    });
    // A corrupt set count is a typed Truncated error, not a reserve of
    // gigabytes that throws std::bad_alloc.
    EXPECT_EQ(t.find("threw"), std::string::npos);
    EXPECT_EQ(digest(t), (Digest{0xd5b313462dec767cull, 107887}));
}

}  // namespace
