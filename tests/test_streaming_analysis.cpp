// Streaming §VII battery (DESIGN.md §16): the out-of-core pipeline —
// FlowLogWriter spill, FlowLogReader replay, and the two-pass scale runner
// feeding the §VII folds — must reproduce the in-memory study bit for bit.
// Replaying a spill must equal feeding the folds the in-memory records;
// property tests split the YFL2 stream at every byte (hence every record
// boundary) and prove the readers fail identically on every truncation and
// every single-byte corruption.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "capture/binary_log.hpp"
#include "sim/random.hpp"
#include "study/scale_run.hpp"
#include "study/study_run.hpp"
#include "util/parallel.hpp"

#include "test_support.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace fs = std::filesystem;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
namespace util = ytcdn::util;
using ytcdn::test::file_bytes;

namespace {

std::vector<capture::FlowRecord> random_records(std::size_t n, std::uint64_t seed) {
    sim::Rng rng(seed);
    std::vector<capture::FlowRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        capture::FlowRecord r;
        r.client_ip = net::IpAddress{static_cast<std::uint32_t>(rng.engine()())};
        r.server_ip = net::IpAddress{static_cast<std::uint32_t>(rng.engine()())};
        r.start = rng.uniform(0.0, 604800.0);
        r.end = r.start + rng.uniform(0.0, 500.0);
        r.bytes = rng.engine()() % (1ull << 34);
        r.video = cdn::VideoId{rng.engine()()};
        r.resolution = cdn::kAllResolutions[rng.uniform_index(5)];
        out.push_back(r);
    }
    return out;
}

fs::path scratch_dir(const std::string& tag) {
    const auto dir = fs::temp_directory_path() / ("ytcdn_streaming_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/// Drains a FlowLogReader; on success fills `out` with every record.
util::Result<void> stream_all(const fs::path& path, std::size_t chunk,
                              std::vector<capture::FlowRecord>& out) {
    out.clear();
    auto reader = capture::FlowLogReader::open(path, chunk);
    if (!reader.ok()) return reader.error();
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        if (!n.ok()) return n.error();
        if (n.value() == 0) break;
        out.insert(out.end(), block.begin(), block.end());
    }
    EXPECT_EQ(reader.value().records_read(), out.size());
    return {};
}

/// The streaming reader's error code on `bytes`, or nullopt on success.
std::optional<ytcdn::ErrorCode> stream_code(const fs::path& path,
                                            const std::string& bytes) {
    ytcdn::test::put_file(path, bytes);
    std::vector<capture::FlowRecord> sink;
    auto r = stream_all(path, 64, sink);
    if (r.ok()) return std::nullopt;
    return r.error().code();
}

/// The batch reader's error code on `bytes`, or nullopt on success.
std::optional<ytcdn::ErrorCode> batch_code(const std::string& bytes) {
    std::istringstream in(bytes);
    auto r = capture::read_binary_log_result(in);
    if (r.ok()) return std::nullopt;
    return r.error().code();
}

void expect_records_equal(const std::vector<capture::FlowRecord>& a,
                          const std::vector<capture::FlowRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    std::ostringstream sa, sb;
    capture::write_binary_log(sa, a);
    capture::write_binary_log(sb, b);
    EXPECT_EQ(sa.str(), sb.str());
}

std::vector<std::pair<double, double>> cdf_points(const analysis::EmpiricalCdf& c) {
    return c.curve(std::numeric_limits<std::size_t>::max());
}

// --- FlowLogWriter / FlowLogReader vs the batch serializers ---------------

TEST(StreamingLog, WriterProducesBatchIdenticalBytes) {
    // 5000 records span two CRC blocks, exercising the mid-stream flush
    // and the finish-time header patch. Byte equality with write_binary_log
    // is the property the whole spill pipeline rests on.
    const auto dir = scratch_dir("writer");
    const auto records = random_records(5000, 21);
    const auto path = dir / "log.yfl";
    auto writer = capture::FlowLogWriter::create(path);
    ASSERT_TRUE(writer.ok()) << writer.error().what();
    for (const auto& r : records) {
        ASSERT_TRUE(writer.value().add(r).ok());
    }
    EXPECT_EQ(writer.value().records_written(), records.size());
    ASSERT_TRUE(std::move(writer.value()).finish().ok());

    std::ostringstream batch;
    capture::write_binary_log(batch, records);
    EXPECT_EQ(file_bytes(path), batch.str());

    // The empty spill (a vantage point that saw nothing) is well-formed too.
    const auto empty_path = dir / "empty.yfl";
    auto empty = capture::FlowLogWriter::create(empty_path);
    ASSERT_TRUE(empty.ok());
    ASSERT_TRUE(std::move(empty.value()).finish().ok());
    std::ostringstream empty_batch;
    capture::write_binary_log(empty_batch, {});
    EXPECT_EQ(file_bytes(empty_path), empty_batch.str());
    fs::remove_all(dir);
}

TEST(StreamingLog, UnfinishedWriterPublishesNothing) {
    // Crash-safety: until finish(), the final name must not exist — a spill
    // interrupted mid-run can never be mistaken for a complete log.
    const auto dir = scratch_dir("unfinished");
    const auto path = dir / "log.yfl";
    {
        auto writer = capture::FlowLogWriter::create(path);
        ASSERT_TRUE(writer.ok());
        ASSERT_TRUE(writer.value().add(random_records(1, 3)[0]).ok());
        EXPECT_FALSE(fs::exists(path));
        // Destructor without finish(): discard.
    }
    EXPECT_FALSE(fs::exists(path));
    fs::remove_all(dir);
}

TEST(StreamingLog, ReaderStreamsBatchIdenticalRecords) {
    const auto dir = scratch_dir("reader");
    const auto records = random_records(4100, 22);  // two blocks: 4096 + 4
    const auto path = dir / "log.yfl";
    capture::write_binary_log(path, records);

    std::vector<capture::FlowRecord> streamed;
    auto r = stream_all(path, 1 << 16, streamed);
    ASSERT_TRUE(r.ok()) << r.error().what();
    expect_records_equal(streamed, records);

    auto reader = capture::FlowLogReader::open(path);
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().declared_records(), records.size());
    fs::remove_all(dir);
}

TEST(StreamingLog, ChunkBoundaryInvariance) {
    // Sweeping the refill granularity from one byte up places a chunk
    // boundary inside every header, every block frame and every record —
    // the "split the stream at every record boundary" property. Output must
    // be identical at every granularity.
    const auto dir = scratch_dir("chunks");
    const auto records = random_records(300, 24);
    const auto path = dir / "log.yfl";
    capture::write_binary_log(path, records);

    std::vector<capture::FlowRecord> baseline;
    ASSERT_TRUE(stream_all(path, 1 << 20, baseline).ok());
    expect_records_equal(baseline, records);

    std::vector<std::size_t> chunks;
    for (std::size_t c = 1; c <= 96; ++c) chunks.push_back(c);
    chunks.insert(chunks.end(), {97, 101, 4096, 1 << 15});
    for (const std::size_t chunk : chunks) {
        std::vector<capture::FlowRecord> streamed;
        auto r = stream_all(path, chunk, streamed);
        ASSERT_TRUE(r.ok()) << "chunk=" << chunk << ": " << r.error().what();
        ASSERT_EQ(streamed.size(), records.size()) << "chunk=" << chunk;
        expect_records_equal(streamed, records);
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, EveryTruncationFailsLikeTheBatchReader) {
    // Cut the stream after every prefix length: the incremental reader
    // must report an error (or, never, success where batch fails) with the
    // same code the batch reader assigns — one shared taxonomy, not two.
    const auto dir = scratch_dir("trunc");
    const auto records = random_records(10, 25);
    std::ostringstream os;
    capture::write_binary_log(os, records);
    const std::string good = os.str();
    const auto path = dir / "cut.yfl";

    for (std::size_t cut = 0; cut < good.size(); ++cut) {
        const std::string bytes = good.substr(0, cut);
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        ASSERT_TRUE(batch.has_value()) << "cut=" << cut;
        ASSERT_TRUE(streamed.has_value()) << "cut=" << cut;
        EXPECT_EQ(*streamed, *batch)
            << "cut=" << cut << " batch=" << ytcdn::to_string(*batch)
            << " streamed=" << ytcdn::to_string(*streamed);
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, EveryByteFlipFailsLikeTheBatchReader) {
    const auto dir = scratch_dir("flip");
    const auto records = random_records(10, 26);
    std::ostringstream os;
    capture::write_binary_log(os, records);
    const std::string good = os.str();
    const auto path = dir / "flip.yfl";

    for (std::size_t at = 0; at < good.size(); ++at) {
        std::string bytes = good;
        bytes[at] = static_cast<char>(bytes[at] ^ 0x2A);
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        ASSERT_EQ(streamed.has_value(), batch.has_value()) << "at=" << at;
        if (batch.has_value()) {
            EXPECT_EQ(*streamed, *batch)
                << "at=" << at << " batch=" << ytcdn::to_string(*batch)
                << " streamed=" << ytcdn::to_string(*streamed);
        }
    }
    fs::remove_all(dir);
}

TEST(StreamingLog, CorruptFixturesFailIdenticallyInBothReaders) {
    // The checked-in fuzz fixtures (tests/fuzz/corpus) are crafted attacks
    // on individual validation steps; the incremental reader must map every
    // one to the exact same typed outcome as the batch reader.
    const fs::path corpus = YTCDN_CORPUS_DIR;
    ASSERT_TRUE(fs::is_directory(corpus));
    const auto scratch = scratch_dir("fixtures");
    const auto path = scratch / "fixture.yfl";
    std::size_t swept = 0;
    for (const auto& entry : fs::directory_iterator(corpus)) {
        if (!entry.is_regular_file()) continue;
        if (entry.path().extension() != ".yfl") continue;
        const std::string bytes = file_bytes(entry.path());
        const auto batch = batch_code(bytes);
        const auto streamed = stream_code(path, bytes);
        SCOPED_TRACE(entry.path().filename().string());
        ASSERT_EQ(streamed.has_value(), batch.has_value());
        if (batch.has_value()) {
            EXPECT_EQ(*streamed, *batch);
        }
        ++swept;
    }
    // The corpus must include the incremental-reader fixtures (truncated
    // mid-block, lying block count, bad trailer magic, bad itag).
    EXPECT_GE(swept, 10u);
    fs::remove_all(scratch);
}

// --- the out-of-core paths vs the in-memory study -------------------------

class StreamingModules : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.005;
        cfg.seed = 0xCDA1'2011ull;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static const study::StudyRun& run() { return *run_; }

private:
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> StreamingModules::run_;

TEST_F(StreamingModules, ChunkedSpillReplayMatchesDirectFeed) {
    // End-to-end incremental path: spill a dataset with FlowLogWriter, read
    // it back block-wise at an adversarial chunk size, feed the modules —
    // identical results to feeding the in-memory vector.
    const auto dir = scratch_dir("replay");
    const auto& ds = run().traces.datasets[0];
    const auto& map = run().maps[0];
    const int preferred = run().preferred[0];

    const auto path = dir / "spill.yfl";
    auto writer = capture::FlowLogWriter::create(path);
    ASSERT_TRUE(writer.ok());
    for (const auto& r : ds.records) ASSERT_TRUE(writer.value().add(r).ok());
    ASSERT_TRUE(std::move(writer.value()).finish().ok());

    analysis::IncrementalHourlyLoad direct(preferred, ds.name);
    for (const auto& r : ds.records) direct.add(r, map.dc_of(r.server_ip));

    analysis::IncrementalHourlyLoad replayed(preferred, ds.name);
    auto reader = capture::FlowLogReader::open(path, 997);  // prime chunk
    ASSERT_TRUE(reader.ok());
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        ASSERT_TRUE(n.ok()) << n.error().what();
        if (n.value() == 0) break;
        for (const auto& r : block) replayed.add(r, map.dc_of(r.server_ip));
    }
    EXPECT_EQ(reader.value().records_read(), ds.records.size());

    EXPECT_EQ(cdf_points(replayed.non_preferred_cdf()),
              cdf_points(direct.non_preferred_cdf()));
    EXPECT_EQ(replayed.correlation(), direct.correlation());
    fs::remove_all(dir);
}

// --- the two-pass scale runner vs the batch study -------------------------

TEST_F(StreamingModules, ScaleRunMatchesBatchAnalysis) {
    // The full out-of-core pipeline at a small scale: pass 1 spills via the
    // trace driver's sinks, pass 2 streams the spills — and every per-VP figure it
    // reports must equal what the in-memory batch toolchain computes.
    const auto dir = scratch_dir("scale");
    study::ScaleRunConfig cfg;
    cfg.study = run().config;
    cfg.spill_dir = dir;
    util::ThreadPool pool(2);
    auto summary = study::run_scale_study(cfg, pool);
    ASSERT_TRUE(summary.ok()) << summary.error().what();

    std::uint64_t sessions = 0;
    for (const auto r : run().traces.requests_generated) sessions += r;
    EXPECT_EQ(summary.value().sessions, sessions);
    EXPECT_GT(summary.value().sessions, 0u);

    std::uint64_t flows = 0;
    ASSERT_EQ(summary.value().vantage.size(), run().traces.datasets.size());
    for (std::size_t i = 0; i < summary.value().vantage.size(); ++i) {
        const auto& vp = summary.value().vantage[i];
        const auto& ds = run().traces.datasets[i];
        const auto& map = run().maps[i];
        const int preferred = run().preferred[i];
        SCOPED_TRACE(ds.name);
        EXPECT_EQ(vp.name, ds.name);
        EXPECT_EQ(vp.flows, ds.records.size());
        EXPECT_EQ(vp.preferred, preferred);
        const auto share = analysis::non_preferred_share(ds, map, preferred);
        EXPECT_EQ(vp.share.byte_fraction, share.byte_fraction);
        EXPECT_EQ(vp.share.flow_fraction, share.flow_fraction);
        EXPECT_EQ(vp.load_correlation,
                  analysis::fold_records(
                      ds, map, analysis::IncrementalHourlyLoad(preferred, ds.name))
                      .correlation());
        flows += vp.flows;
        // keep_spill defaults off: pass 2 cleaned up after itself.
        EXPECT_FALSE(fs::exists(dir / (ds.name + ".yfl")));
    }
    EXPECT_EQ(summary.value().flows, flows);
    fs::remove_all(dir);
}

TEST_F(StreamingModules, ScaleRunKeptSpillsAreTheLegacyDatasets) {
    const auto dir = scratch_dir("scale_keep");
    study::ScaleRunConfig cfg;
    cfg.study = run().config;
    cfg.spill_dir = dir;
    cfg.keep_spill = true;
    util::ThreadPool pool(1);
    auto summary = study::run_scale_study(cfg, pool);
    ASSERT_TRUE(summary.ok()) << summary.error().what();

    for (std::size_t i = 0; i < run().traces.datasets.size(); ++i) {
        const auto& ds = run().traces.datasets[i];
        const auto path = dir / (ds.name + ".yfl");
        ASSERT_TRUE(fs::exists(path)) << ds.name;
        // The spill is the stream in emission order; the legacy dataset is
        // the same records after the driver's time sort. Same multiset,
        // byte-identical once sorted the same way.
        capture::Dataset spilled;
        spilled.name = ds.name;
        spilled.records = capture::read_binary_log(path);
        spilled.sort_by_time();
        expect_records_equal(spilled.records, ds.records);
    }
    fs::remove_all(dir);
}

TEST_F(StreamingModules, ScaleRunIsIdenticalAtPoolSizesOneAndFour) {
    // Pass 1 runs the draws and the event loop on lanes and the spill
    // sinks on the caller; the spills (in emission order) and every
    // summary figure must be the serial run's.
    struct Run {
        study::ScaleRunSummary summary;
        std::vector<std::string> spills;
    };
    const auto run_at = [this](std::size_t threads) {
        const auto dir = scratch_dir("scale_pool" + std::to_string(threads));
        study::ScaleRunConfig cfg;
        cfg.study = run().config;
        cfg.spill_dir = dir;
        cfg.keep_spill = true;
        util::ThreadPool pool(threads);
        auto summary = study::run_scale_study(cfg, pool);
        EXPECT_TRUE(summary.ok()) << summary.error().what();
        Run out{summary.ok() ? summary.value() : study::ScaleRunSummary{}, {}};
        for (const auto& vp : out.summary.vantage) {
            const auto records = capture::read_binary_log(dir / (vp.name + ".yfl"));
            out.spills.push_back(capture::write_binary_log_bytes(records));
        }
        fs::remove_all(dir);
        return out;
    };
    const Run serial = run_at(1);
    const Run pooled = run_at(4);
    ASSERT_FALSE(serial.spills.empty());
    EXPECT_EQ(pooled.spills, serial.spills);
    EXPECT_EQ(pooled.summary.sessions, serial.summary.sessions);
    EXPECT_EQ(pooled.summary.flows, serial.summary.flows);
    EXPECT_EQ(pooled.summary.events, serial.summary.events);
    ASSERT_EQ(pooled.summary.vantage.size(), serial.summary.vantage.size());
    for (std::size_t i = 0; i < serial.summary.vantage.size(); ++i) {
        const auto& a = pooled.summary.vantage[i];
        const auto& b = serial.summary.vantage[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.flows, b.flows);
        EXPECT_EQ(a.preferred, b.preferred);
        EXPECT_EQ(a.share.byte_fraction, b.share.byte_fraction);
        EXPECT_EQ(a.share.flow_fraction, b.share.flow_fraction);
        EXPECT_EQ(a.load_correlation, b.load_correlation);
        EXPECT_EQ(a.redirected_videos, b.redirected_videos);
    }
}

}  // namespace
