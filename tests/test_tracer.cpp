// sim::Tracer contract tests: the YTR1 format round-trips bit-exactly
// (pinned against the checked-in corpus fixture), traced runs are
// byte-identical across repeats and thread-pool sizes, and tracing changes
// no rendered paper artifact. The trace invariants (one start, one terminal
// end per session; bounded retries) hold on real simulated weeks.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/tracer.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "workload/player.hpp"

namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
namespace util = ytcdn::util;
namespace workload = ytcdn::workload;

namespace {

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

std::string corpus_path(const std::string& name) {
    return std::string(YTCDN_CORPUS_DIR) + "/" + name;
}

study::StudyConfig small_config() {
    study::StudyConfig cfg;
    cfg.scale = 0.004;
    return cfg;
}

/// One traced run on a pool of the given size; returns the sorted trace
/// bytes, the metrics snapshot delta of the run, and the rendered Table I.
struct RunArtifacts {
    std::string trace_bytes;
    std::string metrics_text;
    std::string table1;
};

RunArtifacts traced_run(std::size_t pool_threads) {
    util::metrics::Registry::global().reset();
    util::ThreadPool pool(pool_threads);
    sim::Tracer tracer;
    const auto run = study::run_study(small_config(), pool, &tracer);
    RunArtifacts out;
    out.trace_bytes = sim::write_trace_bytes(tracer.sorted_log());
    out.metrics_text = util::metrics::Registry::global().snapshot().render();
    out.table1 = study::make_table1(study::fold_study(run, pool).vantage).render();
    return out;
}

TEST(Tracer, EmitBuffersEventsInOrder) {
    sim::Tracer tracer;
    sim::TraceStream stream(&tracer, 2);
    EXPECT_TRUE(stream.enabled());
    stream.emit(1.0, sim::TraceEventType::SessionStart, 7, 22, 42);
    stream.emit(2.0, sim::TraceEventType::SessionEnd, 7);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].seq, 0u);
    EXPECT_EQ(tracer.events()[0].vp, 2);
    EXPECT_EQ(tracer.events()[0].session, 7u);
    EXPECT_EQ(tracer.events()[0].code, 22);
    EXPECT_EQ(tracer.events()[0].a, 42);
    EXPECT_EQ(tracer.events()[1].type, sim::TraceEventType::SessionEnd);
    EXPECT_EQ(tracer.emitted(), 2u);
}

TEST(Tracer, DisabledStreamIsANoOp) {
    const sim::TraceStream stream;  // default: disabled
    EXPECT_FALSE(stream.enabled());
    stream.emit(1.0, sim::TraceEventType::Redirect, 1);
    EXPECT_EQ(stream.intern("x"), 0u);
}

TEST(Tracer, FilterDropsEventsButSeqCountsAllEmissions) {
    const auto filter =
        sim::TraceFilter::parse("session-start,session-end").value_or_throw();
    sim::Tracer tracer(filter);
    tracer.emit(1.0, sim::TraceEventType::SessionStart, 0, 1);
    tracer.emit(1.5, sim::TraceEventType::DnsQuery, 0, 1);  // filtered out
    tracer.emit(2.0, sim::TraceEventType::SessionEnd, 0, 1);
    ASSERT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.events()[0].seq, 0u);
    EXPECT_EQ(tracer.events()[1].seq, 2u);  // the dropped event kept its seq
    EXPECT_EQ(tracer.emitted(), 3u);
}

TEST(Tracer, FilterParseRejectsUnknownNamesAndEmptyLists) {
    auto unknown = sim::TraceFilter::parse("session-start,frobnicate");
    ASSERT_FALSE(unknown.ok());
    EXPECT_EQ(unknown.error().code(), ytcdn::ErrorCode::InvalidArgument);
    auto empty = sim::TraceFilter::parse(",,");
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.error().code(), ytcdn::ErrorCode::InvalidArgument);
}

TEST(Tracer, EventTypeNamesRoundTrip) {
    for (std::size_t i = 0; i < sim::kNumTraceEventTypes; ++i) {
        const auto type = static_cast<sim::TraceEventType>(i);
        const auto name = sim::to_string(type);
        ASSERT_NE(name, "?");
        EXPECT_EQ(sim::trace_event_type_from(name).value_or_throw(), type);
    }
}

TEST(Tracer, InternDeduplicatesStrings) {
    sim::Tracer tracer;
    EXPECT_EQ(tracer.intern("frankfurt"), 0u);
    EXPECT_EQ(tracer.intern("milan"), 1u);
    EXPECT_EQ(tracer.intern("frankfurt"), 0u);
    EXPECT_EQ(tracer.log().strings.size(), 2u);
}

// --- YTR1 round trip against the checked-in fixture -----------------------

/// The exact log make_corpus.py encodes into corpus/trace_valid.ytr.
sim::TraceLog fixture_log() {
    sim::TraceLog log;
    log.strings = {"frankfurt"};
    const auto ev = [](double time, std::uint64_t seq, std::uint64_t session,
                       std::int64_t a, std::int64_t b, sim::TraceEventType type,
                       std::uint8_t vp, std::uint16_t code) {
        sim::TraceEvent e;
        e.time = time;
        e.seq = seq;
        e.session = session;
        e.a = a;
        e.b = b;
        e.type = type;
        e.vp = vp;
        e.code = code;
        return e;
    };
    log.events = {
        ev(1.0, 0, 1, 42, 0, sim::TraceEventType::SessionStart, 0, 22),
        ev(1.0, 1, 1, 0, 0, sim::TraceEventType::DnsQuery, 0, 0),
        ev(1.0, 2, 1, 3, 0, sim::TraceEventType::DnsAnswer, 0, 0),
        ev(1.0, 3, 1, 3, 5, sim::TraceEventType::DcSelected, 0, 0),
        ev(2.5, 4, 0, 0, 0, sim::TraceEventType::Fault, 0xFF, 0),
        ev(9.25, 5, 1, 0, 0, sim::TraceEventType::SessionEnd, 0, 0),
    };
    return log;
}

TEST(Tracer, WriterMatchesCheckedInFixtureByteForByte) {
    EXPECT_EQ(sim::write_trace_bytes(fixture_log()),
              read_file(corpus_path("trace_valid.ytr")));
}

TEST(Tracer, ReaderRoundTripsTheCheckedInFixture) {
    const auto bytes = read_file(corpus_path("trace_valid.ytr"));
    const auto log = sim::read_trace_bytes(bytes).value_or_throw();
    EXPECT_EQ(log, fixture_log());
    // write(read(x)) == x closes the loop.
    EXPECT_EQ(sim::write_trace_bytes(log), bytes);
    const auto validation = sim::validate_trace(log, 3);
    EXPECT_TRUE(validation.ok());
    EXPECT_EQ(validation.sessions, 1u);
}

TEST(Tracer, CorruptFixturesYieldTypedErrors) {
    const std::pair<const char*, ytcdn::ErrorCode> cases[] = {
        {"trace_bad_magic.ytr", ytcdn::ErrorCode::BadMagic},
        {"trace_truncated.ytr", ytcdn::ErrorCode::Truncated},
        {"trace_bad_crc.ytr", ytcdn::ErrorCode::ChecksumMismatch},
        {"trace_count_overflow.ytr", ytcdn::ErrorCode::CountMismatch},
        {"trace_bad_string_ref.ytr", ytcdn::ErrorCode::BadField},
    };
    for (const auto& [name, code] : cases) {
        auto r = sim::read_trace_bytes(read_file(corpus_path(name)));
        ASSERT_FALSE(r.ok()) << name;
        EXPECT_EQ(r.error().code(), code) << name;
    }
}

TEST(Tracer, SalvageRecoversTornTailButRejectsCorruption) {
    // A writer killed mid-append leaves a valid prefix: strict read says
    // Truncated, salvage returns every CRC-verified block.
    const auto bytes = sim::write_trace_bytes(fixture_log());
    const auto torn = bytes.substr(0, bytes.size() - 10);  // mid-trailer
    ASSERT_FALSE(sim::read_trace_bytes(torn).ok());
    auto salvage = sim::salvage_trace_bytes(torn).value_or_throw();
    EXPECT_FALSE(salvage.complete);
    EXPECT_FALSE(salvage.note.empty());
    EXPECT_EQ(salvage.declared_events, 6u);
    EXPECT_EQ(salvage.log, fixture_log());  // one full block: nothing lost

    // Tear inside the single event block: the whole block is unverifiable,
    // so salvage keeps the string table but zero events.
    const auto mid_block = bytes.substr(0, bytes.size() / 2);
    auto partial = sim::salvage_trace_bytes(mid_block).value_or_throw();
    EXPECT_FALSE(partial.complete);
    EXPECT_TRUE(partial.log.events.empty());
    EXPECT_EQ(partial.log.strings, fixture_log().strings);

    // An intact stream salvages as complete (callers treat that as "use the
    // strict reader's verdict instead").
    EXPECT_TRUE(sim::salvage_trace_bytes(bytes).value_or_throw().complete);

    // Corruption is still corruption: a flipped bit inside a complete block
    // or a damaged string table must not be dressed up as a tear.
    std::string flipped = bytes;
    flipped[flipped.size() - 40] ^= 1;
    auto bad_block = sim::salvage_trace_bytes(flipped);
    ASSERT_FALSE(bad_block.ok());
    EXPECT_EQ(bad_block.error().code(), ytcdn::ErrorCode::ChecksumMismatch);
    EXPECT_FALSE(
        sim::salvage_trace_bytes(read_file(corpus_path("trace_bad_crc.ytr")))
            .ok());
    EXPECT_FALSE(
        sim::salvage_trace_bytes(read_file(corpus_path("trace_bad_magic.ytr")))
            .ok());
}

TEST(Tracer, JsonlCarriesResolvedFaultTargets) {
    const auto jsonl = sim::render_trace_jsonl(fixture_log());
    EXPECT_NE(jsonl.find("\"type\":\"fault\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"target\":\"frankfurt\""), std::string::npos);
    EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 6);
}

// --- invariants on malformed logs ------------------------------------------

TEST(Tracer, ValidatorFlagsMissingTerminalEvents) {
    sim::Tracer tracer;
    tracer.emit(1.0, sim::TraceEventType::SessionStart, 0, 1);
    tracer.emit(2.0, sim::TraceEventType::SessionStart, 0, 2);
    tracer.emit(3.0, sim::TraceEventType::SessionEnd, 0, 2);
    const auto v = sim::validate_trace(tracer.log(), 3);
    EXPECT_FALSE(v.ok());
    ASSERT_EQ(v.problems.size(), 1u);
    EXPECT_NE(v.problems[0].find("0 session-end"), std::string::npos);
}

TEST(Tracer, ValidatorFlagsRetryBudgetViolations) {
    sim::Tracer tracer;
    tracer.emit(1.0, sim::TraceEventType::SessionStart, 0, 1);
    for (int i = 0; i < 5; ++i) {
        tracer.emit(1.0 + i, sim::TraceEventType::Retry, 0, 1,
                    static_cast<std::uint16_t>(i + 1));
    }
    tracer.emit(9.0, sim::TraceEventType::SessionEnd, 0, 1, 2);
    const auto v = sim::validate_trace(tracer.log(), 3);
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.max_retries_seen, 5u);
}

TEST(Tracer, ValidatorFlagsTimeGoingBackwards) {
    sim::Tracer tracer;
    tracer.emit(5.0, sim::TraceEventType::SessionStart, 0, 1);
    tracer.emit(4.0, sim::TraceEventType::SessionEnd, 0, 1);
    const auto v = sim::validate_trace(tracer.log(), 3);
    EXPECT_FALSE(v.ok());
}

// --- whole-study golden behaviour ------------------------------------------

TEST(Tracer, StudyTraceSatisfiesInvariantsAndMatchesPlayerStats) {
    sim::Tracer tracer;
    const auto run = study::run_study(small_config(), &tracer);
    ASSERT_GT(tracer.events().size(), 0u);

    const auto log = tracer.log();
    const auto v = sim::validate_trace(log, workload::Player::Config{}.max_connect_retries);
    EXPECT_TRUE(v.ok()) << (v.problems.empty() ? "" : v.problems.front());

    std::uint64_t sessions = 0;
    for (const auto& s : run.traces.player_stats) sessions += s.sessions;
    EXPECT_EQ(v.sessions, sessions);
}

TEST(Determinism, MetricsAndTrace) {
    const auto base = traced_run(1);
    ASSERT_FALSE(base.trace_bytes.empty());
    ASSERT_FALSE(base.metrics_text.empty());

    // Same seed, any pool size, repeated runs: every byte identical.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{8}}) {
        const auto repeat = traced_run(threads);
        EXPECT_EQ(repeat.trace_bytes, base.trace_bytes)
            << "trace differs at pool size " << threads;
        EXPECT_EQ(repeat.metrics_text, base.metrics_text)
            << "metrics differ at pool size " << threads;
        EXPECT_EQ(repeat.table1, base.table1)
            << "artifact differs at pool size " << threads;
    }

    // Tracing must not perturb any rendered artifact: an untraced run
    // renders the same Table I.
    util::metrics::Registry::global().reset();
    util::ThreadPool pool(2);
    const auto untraced = study::run_study(small_config(), pool);
    EXPECT_EQ(study::make_table1(study::fold_study(untraced, pool).vantage).render(),
              base.table1);
}

}  // namespace
