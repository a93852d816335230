// The supervised study pipeline: YCK1 checkpoint framing and its corruption
// taxonomy, the stage payload codecs, interrupted-run resume (byte-identical
// report), checkpoint quarantine, and a full run under a p=0.01 fault plan.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "study/checkpoint.hpp"
#include "study/supervisor.hpp"
#include "util/io.hpp"

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
    const auto path = dir / "capture.yck";

    // Missing file: cold start, no warning.
    std::string warning;
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Capture,
                                                   &warning),
              std::nullopt);
    EXPECT_TRUE(warning.empty());

    // Corrupt file: nullopt, a warning, and the damage moved aside.
    ASSERT_TRUE(io::write_file_atomic(path, "not a checkpoint at all").ok());
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Capture,
                                                   &warning),
              std::nullopt);
    EXPECT_FALSE(warning.empty());
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(dir / "capture.yck.corrupt.1"));

    // Valid file: payload comes back.
    ASSERT_TRUE(
        study::write_checkpoint(path, kKey, study::Stage::Capture, "ok").ok());
    EXPECT_EQ(study::load_or_quarantine_checkpoint(path, kKey,
                                                   study::Stage::Capture,
                                                   nullptr),
              std::optional<std::string>("ok"));
    fs::remove_all(dir);
}

TEST(CheckpointCodec, CaptureRoundTrips) {
    std::vector<study::CaptureEntry> entries;
    entries.push_back({"EU1", 12345, 0xDEADBEEF});
    entries.push_back({"US-E", 0, 0});
    entries.push_back({"KR", 1ull << 40, 7});
    const auto decoded = study::decode_capture(study::encode_capture(entries));
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    ASSERT_EQ(decoded.value().size(), entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        EXPECT_EQ(decoded.value()[i].name, entries[i].name);
        EXPECT_EQ(decoded.value()[i].size, entries[i].size);
        EXPECT_EQ(decoded.value()[i].crc, entries[i].crc);
    }
    EXPECT_FALSE(study::decode_capture("garbage").ok());
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

TEST(Supervisor, HealthyRunCompletesAllStages) {
    const auto dir = temp_dir("healthy");
    study::Supervisor sup(small_config(), fast_options(dir));
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
    // Checkpoints for every stage that writes one.
    EXPECT_TRUE(fs::exists(
        study::checkpoint_path(dir, study::Stage::Simulate)));
    EXPECT_TRUE(fs::exists(
        study::checkpoint_path(dir, study::Stage::Analyze)));
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

    // Interrupt after every possible stage boundary, then resume. Resuming
    // after Geolocate (k = 3) re-derives the DC columns and sessions from
    // the checkpointed maps, through the same index_study_run as a fresh run.
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
        EXPECT_EQ(from_checkpoint, k) << "interrupted after " << k;
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
    first.max_stages = 2;
    ASSERT_TRUE(study::Supervisor(small_config(), first).run().ok());
    // Flip a byte in the capture checkpoint.
    const auto ck = study::checkpoint_path(dir, study::Stage::Capture);
    std::string bytes = read_all(ck);
    bytes[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(io::write_file_atomic(ck, bytes).ok());

    auto second = fast_options(dir);
    second.resume = true;
    const auto resumed = study::Supervisor(small_config(), second).run();
    ASSERT_TRUE(resumed.ok()) << resumed.error().what();
    EXPECT_FALSE(resumed.value().warnings.empty());
    EXPECT_TRUE(fs::exists(dir / "checkpoints" / "capture.yck.corrupt.1"));
    // Simulate still resumes; capture recomputes; bytes unchanged.
    EXPECT_TRUE(resumed.value().stages[0].from_checkpoint);
    EXPECT_FALSE(resumed.value().stages[1].from_checkpoint);
    EXPECT_EQ(read_all(resumed.value().report_path), ref_report);
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
    io::ScopedFaultPlan scoped(plan);

    const auto dir = temp_dir("chaos");
    auto opt = fast_options(dir);
    opt.policy.attempts = 3;
    const auto result = study::Supervisor(small_config(), opt).run();
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
