#include "analysis/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "session_oracle.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace oracle = ytcdn::oracle;
namespace study = ytcdn::study;

namespace {

capture::FlowRecord flow(std::uint32_t client, std::uint64_t video, double start,
                         double end, std::uint64_t bytes = 5000) {
    capture::FlowRecord r;
    r.client_ip = net::IpAddress{client};
    r.server_ip = net::IpAddress::from_octets(173, 194, 0, 1);
    r.video = cdn::VideoId{video};
    r.start = start;
    r.end = end;
    r.bytes = bytes;
    return r;
}

capture::Dataset dataset(std::vector<capture::FlowRecord> records) {
    capture::Dataset ds;
    ds.name = "T";
    ds.records = std::move(records);
    return ds;
}

TEST(FlowClassify, ThousandByteThreshold) {
    EXPECT_EQ(analysis::classify_flow_size(0), analysis::FlowKind::Control);
    EXPECT_EQ(analysis::classify_flow_size(999), analysis::FlowKind::Control);
    EXPECT_EQ(analysis::classify_flow_size(1000), analysis::FlowKind::Video);
    EXPECT_EQ(analysis::classify_flow_size(5'000'000), analysis::FlowKind::Video);
}

TEST(Sessions, GroupsSameClientVideoWithinGap) {
    const auto ds = dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 100, 10.5, 20.0),  // gap 0.5 < 1 -> same session
    });
    const auto sessions = oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0).size(), 2u);
}

TEST(Sessions, SplitsOnLargeGap) {
    const auto ds = dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 100, 12.0, 20.0),  // gap 2 > 1 -> new session
    });
    EXPECT_EQ(oracle::SessionTable::build(ds, 1.0).num_sessions(), 2u);
    // A larger T merges them.
    EXPECT_EQ(oracle::SessionTable::build(ds, 5.0).num_sessions(), 1u);
}

TEST(Sessions, DifferentVideoOrClientNeverMerge) {
    const auto ds = dataset({
        flow(1, 100, 0.0, 10.0),
        flow(1, 200, 0.1, 9.0),   // other video
        flow(2, 100, 0.2, 9.5),   // other client
    });
    EXPECT_EQ(oracle::SessionTable::build(ds, 10.0).num_sessions(), 3u);
}

TEST(Sessions, OverlappingFlowsAreOneSession) {
    const auto ds = dataset({
        flow(1, 100, 0.0, 100.0),
        flow(1, 100, 50.0, 60.0),  // fully nested
        flow(1, 100, 99.5, 120.0),
    });
    const auto sessions = oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0).size(), 3u);
}

TEST(Sessions, NestedFlowDoesNotShortenHorizon) {
    // A short control flow inside a long video flow must not cause a split
    // when the next flow starts within T of the *latest* end seen so far.
    const auto ds = dataset({
        flow(1, 100, 0.0, 100.0),  // long video flow
        flow(1, 100, 1.0, 2.0),    // short control flow, ends early
        flow(1, 100, 100.5, 110.0),
    });
    EXPECT_EQ(oracle::SessionTable::build(ds, 1.0).num_sessions(), 1u);
}

TEST(Sessions, FlowsSortedWithinSession) {
    const auto ds = dataset({
        flow(1, 100, 5.0, 6.0),
        flow(1, 100, 0.0, 4.5),
    });
    const auto sessions = oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0)[0], 1u);  // unsorted input: row 1 starts first
    EXPECT_DOUBLE_EQ(sessions.start[0], 0.0);
}

TEST(Sessions, OutputSortedByStartTime) {
    const auto ds = dataset({
        flow(2, 200, 50.0, 60.0),
        flow(1, 100, 0.0, 10.0),
        flow(3, 300, 25.0, 30.0),
    });
    const auto sessions = oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 3u);
    EXPECT_LT(sessions.start[0], sessions.start[1]);
    EXPECT_LT(sessions.start[1], sessions.start[2]);
}

TEST(Sessions, EmptyDataset) {
    const auto sessions = oracle::SessionTable::build(dataset({}), 1.0);
    EXPECT_EQ(sessions.num_sessions(), 0u);
    EXPECT_TRUE(sessions.flow_rows.empty());
}

TEST(SessionTable, RowsIndexDatasetRecords) {
    // Nested flows (a long video flow outliving a control flow started after
    // it) and a gap split on one key, plus a second client; the CSR rows
    // point back into the time-sorted records.
    auto ds = dataset({
        flow(1, 1, 0.0, 100.0),        // row 0: long video flow
        flow(1, 1, 1.0, 2.0, 500),     // row 2: nested control flow
        flow(1, 1, 100.5, 101.0, 600), // row 3: within T of the horizon
        flow(1, 1, 200.0, 201.0),      // row 4: new session
        flow(2, 1, 0.5, 3.0),          // row 1: other client
    });
    ds.sort_by_time();
    const auto sessions = oracle::SessionTable::build(ds, 1.0);
    EXPECT_EQ(sessions.offsets, (std::vector<std::uint32_t>{0, 3, 4, 5}));
    EXPECT_EQ(sessions.flow_rows, (std::vector<std::uint32_t>{0, 2, 3, 1, 4}));
    EXPECT_EQ(sessions.client[1], net::IpAddress{2});
    EXPECT_EQ(sessions.start, (std::vector<double>{0.0, 0.5, 200.0}));
}

TEST(SessionTable, RandomizedSessionEquivalence) {
    // The streaming IncrementalSessions applies the same key and gap rule to
    // time-sorted input; its flows-per-session histogram must match the
    // batch grouping's on random datasets with nesting and gap splits.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        ytcdn::sim::Rng rng(seed);
        std::vector<capture::FlowRecord> records;
        for (int i = 0; i < 400; ++i) {
            const double start = rng.uniform(0.0, 20.0 * 3600.0);
            records.push_back(flow(static_cast<std::uint32_t>(rng.uniform_index(4)),
                                   rng.uniform_index(6), start,
                                   start + rng.uniform(0.1, 30.0)));
        }
        auto ds = dataset(std::move(records));
        ds.sort_by_time();

        analysis::IncrementalSessions inc(1.0);
        for (const auto& r : ds.records) inc.add(r);
        inc.close_all();

        const auto sessions = oracle::SessionTable::build(ds, 1.0);
        constexpr std::size_t kMax = analysis::IncrementalSessions::kMaxBucket;
        std::array<std::uint64_t, kMax + 1> histogram{};
        for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
            ++histogram[std::min(sessions.flows_of(s).size(), kMax)];
        }
        EXPECT_EQ(inc.sessions_closed(), sessions.num_sessions()) << "seed " << seed;
        EXPECT_EQ(inc.histogram(), histogram) << "seed " << seed;
    }
}

TEST(ResolutionBreakdown, SharesPartitionVideoFlows) {
    capture::Dataset ds;
    auto make = [](std::uint64_t bytes, cdn::Resolution r) {
        capture::FlowRecord rec;
        rec.bytes = bytes;
        rec.resolution = r;
        return rec;
    };
    ds.records = {
        make(10'000, cdn::Resolution::R360), make(10'000, cdn::Resolution::R360),
        make(30'000, cdn::Resolution::R720), make(500, cdn::Resolution::R240),
    };
    const auto shares =
        analysis::fold_records(ds, analysis::IncrementalResolutions{}).shares();
    ASSERT_EQ(shares.size(), 5u);
    // The 500-byte control flow is excluded.
    EXPECT_DOUBLE_EQ(shares[static_cast<int>(cdn::Resolution::R240)].flow_share, 0.0);
    EXPECT_NEAR(shares[static_cast<int>(cdn::Resolution::R360)].flow_share, 2.0 / 3.0,
                1e-12);
    EXPECT_NEAR(shares[static_cast<int>(cdn::Resolution::R720)].byte_share, 0.6,
                1e-12);
    double flow_sum = 0.0, byte_sum = 0.0;
    for (const auto& s : shares) {
        flow_sum += s.flow_share;
        byte_sum += s.byte_share;
    }
    EXPECT_NEAR(flow_sum, 1.0, 1e-12);
    EXPECT_NEAR(byte_sum, 1.0, 1e-12);
}

TEST(ResolutionBreakdown, EmptyDatasetIsAllZero) {
    const auto shares = analysis::IncrementalResolutions{}.shares();
    for (const auto& s : shares) {
        EXPECT_DOUBLE_EQ(s.flow_share, 0.0);
        EXPECT_DOUBLE_EQ(s.byte_share, 0.0);
    }
}

/// Property: total flows across sessions equals dataset flows; smaller T
/// never produces fewer sessions.
class SessionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionProperty, ConservationAndMonotonicity) {
    ytcdn::sim::Rng rng(GetParam());
    std::vector<capture::FlowRecord> records;
    for (int i = 0; i < 400; ++i) {
        const double start = rng.uniform(0.0, 3000.0);
        records.push_back(flow(static_cast<std::uint32_t>(rng.uniform_index(5)),
                               rng.uniform_index(10), start,
                               start + rng.uniform(0.1, 300.0)));
    }
    const auto ds = dataset(std::move(records));
    std::size_t prev_sessions = SIZE_MAX;
    for (const double t : {1.0, 5.0, 10.0, 60.0, 300.0}) {
        const auto sessions = oracle::SessionTable::build(ds, t);
        EXPECT_EQ(sessions.flow_rows.size(), ds.records.size()) << "T=" << t;
        EXPECT_LE(sessions.num_sessions(), prev_sessions) << "T=" << t;
        prev_sessions = sessions.num_sessions();
        // Every row appears exactly once, under its own (client, video) key.
        std::vector<int> seen(ds.records.size(), 0);
        for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
            for (const std::uint32_t row : sessions.flows_of(s)) {
                ++seen[row];
                EXPECT_EQ(ds.records[row].client_ip, sessions.client[s]);
                EXPECT_EQ(ds.records[row].video, sessions.video[s]);
            }
        }
        EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
                  static_cast<std::ptrdiff_t>(ds.records.size()));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionProperty, ::testing::Values(1u, 2u, 3u, 4u));

void expect_same(const analysis::SessionPatternShares& got,
                 const analysis::SessionPatternShares& want) {
    EXPECT_EQ(got.total_sessions, want.total_sessions);
    EXPECT_EQ(got.single_flow, want.single_flow);
    EXPECT_EQ(got.single_preferred, want.single_preferred);
    EXPECT_EQ(got.single_non_preferred, want.single_non_preferred);
    EXPECT_EQ(got.two_flow, want.two_flow);
    EXPECT_EQ(got.two_pref_pref, want.two_pref_pref);
    EXPECT_EQ(got.two_pref_nonpref, want.two_pref_nonpref);
    EXPECT_EQ(got.two_nonpref_pref, want.two_nonpref_pref);
    EXPECT_EQ(got.two_nonpref_nonpref, want.two_nonpref_nonpref);
    EXPECT_EQ(got.more_flows, want.more_flows);
}

void expect_same(const analysis::MultiFlowPatternShares& got,
                 const analysis::MultiFlowPatternShares& want) {
    EXPECT_EQ(got.sessions, want.sessions);
    EXPECT_EQ(got.share_of_all_sessions, want.share_of_all_sessions);
    EXPECT_EQ(got.all_preferred, want.all_preferred);
    EXPECT_EQ(got.first_preferred_then_other, want.first_preferred_then_other);
    EXPECT_EQ(got.first_non_preferred, want.first_non_preferred);
}

void expect_same(const analysis::Series& got, const analysis::Series& want) {
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.points, want.points) << want.name;
}

/// The report's session fold against the batch oracle on whole simulated
/// weeks (with and without a Dallas outage): every vantage point, at every
/// gap Fig. 5 plots — the 10-bucket CDF, both Fig. 10 tables, and Fig. 16's
/// three series hour by hour for the vantage point's own hot server.
class SessionFoldOracle : public ::testing::TestWithParam<bool> {};

TEST_P(SessionFoldOracle, MatchesSessionTableOnEveryVantagePoint) {
    study::StudyConfig cfg;
    cfg.scale = 0.05;
    if (GetParam()) {
        cfg.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
            "Dallas", 2.0 * ytcdn::sim::kDay, 1.5 * ytcdn::sim::kDay);
    }
    const auto run = study::run_study(cfg);
    std::uint64_t hot_sessions = 0;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        const auto& map = run.maps[i];
        const int preferred = run.preferred[i];
        const auto dc = oracle::dc_column(ds, map);
        const auto report = analysis::fold_report(ds, study::vantage_scope(run, i));
        const auto& top = report.hot_videos.videos();
        const auto server = report.hot_videos.hot_server();
        for (const double gap : {1.0, 5.0, 10.0, 60.0, 300.0}) {
            SCOPED_TRACE(ds.name + " T=" + std::to_string(gap));
            auto fold =
                analysis::fold_records(ds, map, analysis::SessionFold(preferred, gap));
            fold.finish();
            const auto table = oracle::SessionTable::build(ds, gap);
            EXPECT_EQ(fold.num_sessions(), table.num_sessions());
            EXPECT_EQ(fold.flows_cdf(), oracle::flows_per_session_cdf(table));
            expect_same(fold.patterns(), oracle::session_patterns(table, dc, preferred));
            expect_same(fold.multi_flow(),
                        oracle::multi_flow_patterns(table, dc, preferred));
            if (top.empty()) continue;
            const auto want =
                oracle::hot_server_sessions(ds, table, dc, preferred, top.front());
            const auto got = server ? fold.hot_server(*server, ds.name)
                                    : analysis::HotServerSessions{};
            EXPECT_EQ(got.server, want.server);
            expect_same(got.all_preferred, want.all_preferred);
            expect_same(got.first_preferred_then_other, want.first_preferred_then_other);
            expect_same(got.others, want.others);
            for (const auto& [hour, n] : want.all_preferred.points) {
                hot_sessions += static_cast<std::uint64_t>(n);
            }
        }
    }
    EXPECT_GT(hot_sessions, 0u);  // Fig. 16 was compared on real sessions
}

std::string week_name(const ::testing::TestParamInfo<bool>& week) {
    return week.param ? "DallasOutage" : "Baseline";
}

INSTANTIATE_TEST_SUITE_P(Weeks, SessionFoldOracle, ::testing::Values(false, true),
                         week_name);

}  // namespace
