// End-to-end integration: a scaled-down week across all five vantage
// points, asserting the paper's headline shapes hold in the captured
// datasets (the same checks EXPERIMENTS.md reports at larger scale).

#include <gtest/gtest.h>

#include <memory>

#include "analysis/as_analysis.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/subnet_analysis.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"

namespace study = ytcdn::study;
namespace analysis = ytcdn::analysis;
namespace net = ytcdn::net;
namespace cdn = ytcdn::cdn;

namespace {

class StudyRunFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.02;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> StudyRunFixture::run_;

TEST_F(StudyRunFixture, FiveDatasetsWithScaledTableOneCounts) {
    ASSERT_EQ(run_->traces.datasets.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        const auto& ds = run_->traces.datasets[i];
        const auto s = ds.summary();
        const double target =
            static_cast<double>(study::kPaperTargets[i].flows) * run_->config.scale;
        EXPECT_NEAR(static_cast<double>(s.flows), target, target * 0.25) << ds.name;
        // Mean flow volume in the paper is ~4-8 MB across datasets.
        const double mb_per_flow = s.volume_gb * 1000.0 / static_cast<double>(s.flows);
        EXPECT_GT(mb_per_flow, 2.0) << ds.name;
        EXPECT_LT(mb_per_flow, 20.0) << ds.name;
        EXPECT_GT(s.distinct_servers, 100u) << ds.name;
        EXPECT_GT(s.distinct_clients, 30u) << ds.name;
    }
}

TEST_F(StudyRunFixture, RecordsAreTimeOrderedAndWithinCapture) {
    for (const auto& ds : run_->traces.datasets) {
        double prev = 0.0;
        for (const auto& r : ds.records) {
            EXPECT_GE(r.start, prev);
            prev = r.start;
            EXPECT_LE(r.start, ytcdn::sim::kWeek);
            EXPECT_GE(r.end, r.start);
        }
    }
}

TEST_F(StudyRunFixture, GoogleAsCarriesNearlyAllBytesExceptEu2) {
    for (std::size_t i = 0; i < 4; ++i) {
        const auto row = analysis::as_breakdown(run_->traces.datasets[i],
                                                run_->deployment->whois(),
                                                run_->deployment->local_as(i));
        EXPECT_GT(row.google_bytes, 0.95) << row.dataset;   // paper: 97.8-99%
        EXPECT_LT(row.youtube_eu_bytes, 0.03) << row.dataset;
        EXPECT_DOUBLE_EQ(row.same_as_bytes, 0.0) << row.dataset;
        EXPECT_GT(row.youtube_eu_servers, 0.03) << row.dataset;  // many IPs...
        EXPECT_LT(row.youtube_eu_bytes, row.youtube_eu_servers) << row.dataset;
    }
    // EU2: the in-ISP data center carries a large byte share (paper: 38.6%).
    const auto eu2 = analysis::as_breakdown(run_->traces.datasets[4],
                                            run_->deployment->whois(),
                                            run_->deployment->local_as(4));
    EXPECT_GT(eu2.same_as_bytes, 0.25);
    EXPECT_LT(eu2.same_as_bytes, 0.60);
    EXPECT_GT(eu2.google_bytes, 0.35);
}

TEST_F(StudyRunFixture, PreferredDataCenterDominatesExceptEu2) {
    for (std::size_t i = 0; i < 5; ++i) {
        const auto& ds = run_->traces.datasets[i];
        const auto share =
            analysis::non_preferred_share(ds, run_->maps[i], run_->preferred[i]);
        if (ds.name == "EU2") {
            EXPECT_GT(share.byte_fraction, 0.40) << ds.name;  // paper: >55%
        } else {
            EXPECT_LT(share.byte_fraction, 0.15) << ds.name;  // paper: 5-15%
            EXPECT_GT(share.flow_fraction, 0.02) << ds.name;  // but not zero
        }
    }
}

TEST_F(StudyRunFixture, PreferredDcIsTheLowestRttDataCenter) {
    for (std::size_t i = 0; i < 5; ++i) {
        const auto& map = run_->maps[i];
        const double pref_rtt = map.info(run_->preferred[i]).rtt_ms;
        for (const auto& dc : map.data_centers()) {
            EXPECT_GE(dc.rtt_ms, pref_rtt - 1e-9);
        }
    }
}

TEST_F(StudyRunFixture, SingleFlowSessionShareMatchesPaper) {
    for (std::size_t i = 0; i < 5; ++i) {
        const auto sessions = analysis::build_sessions(run_->traces.datasets[i], 1.0);
        const auto cdf = analysis::flows_per_session_cdf(sessions);
        // Paper: 72.5-80.5% single-flow sessions; allow slack at tiny scale.
        EXPECT_GT(cdf[0], 0.65) << run_->traces.datasets[i].name;
        EXPECT_LT(cdf[0], 0.90) << run_->traces.datasets[i].name;
    }
}

TEST_F(StudyRunFixture, TwoFlowPatternsFollowFig10) {
    // EU1 datasets: redirection (preferred -> non-preferred) visible; EU2:
    // (non-preferred, non-preferred) dominates among mixed patterns.
    const auto idx_adsl = run_->vp_index("EU1-ADSL");
    const auto s_adsl = analysis::session_patterns(
        analysis::build_sessions(run_->traces.datasets[idx_adsl], 1.0),
        run_->maps[idx_adsl], run_->preferred[idx_adsl]);
    EXPECT_GT(s_adsl.two_pref_pref, 0.05);     // control+video handshakes
    EXPECT_GT(s_adsl.two_pref_nonpref, 0.005); // app-layer redirection exists

    const auto idx_eu2 = run_->vp_index("EU2");
    const auto s_eu2 = analysis::session_patterns(
        analysis::build_sessions(run_->traces.datasets[idx_eu2], 1.0),
        run_->maps[idx_eu2], run_->preferred[idx_eu2]);
    EXPECT_GT(s_eu2.single_non_preferred, 0.25);  // DNS-driven (paper: >40%)
    EXPECT_GT(s_eu2.two_nonpref_nonpref, s_eu2.two_pref_nonpref);
}

TEST_F(StudyRunFixture, Eu2DayNightLoadBalancing) {
    const auto idx = run_->vp_index("EU2");
    const auto series = analysis::hourly_preferred_series(
        run_->traces.datasets[idx], run_->maps[idx], run_->preferred[idx]);
    // Find min/max hourly local fraction across the week, ignoring nearly
    // empty slots.
    double lo = 1.0, hi = 0.0;
    for (std::size_t h = 0; h < series.fraction_preferred.points.size(); ++h) {
        const double flows = series.flows_per_hour.points[h].second;
        if (flows < 10) continue;
        const double f = series.fraction_preferred.points[h].second;
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    EXPECT_GT(hi, 0.85);  // night: ~100% local
    EXPECT_LT(lo, 0.55);  // busy hours: local share collapses (paper ~30%)
}

TEST_F(StudyRunFixture, NetThreeCarriesOutsizedNonPreferredShare) {
    const auto idx = run_->vp_index("US-Campus");
    const auto& vp = run_->deployment->vantage(idx);
    std::vector<analysis::NamedSubnet> subnets;
    for (const auto& s : vp.subnets) subnets.push_back({s.name, s.prefix});
    const auto shares = analysis::subnet_breakdown(
        run_->traces.datasets[idx], run_->maps[idx], run_->preferred[idx], subnets);
    ASSERT_EQ(shares.size(), 5u);
    const auto& net3 = shares[2];
    EXPECT_EQ(net3.name, "Net-3");
    EXPECT_LT(net3.all_flows_share, 0.08);          // ~4% of flows
    EXPECT_GT(net3.non_preferred_share, 0.25);      // ~half of non-preferred
    EXPECT_GT(net3.non_preferred_share, 5.0 * net3.all_flows_share);
}

TEST_F(StudyRunFixture, PlayerStatsAreConsistent) {
    for (std::size_t i = 0; i < 5; ++i) {
        const auto& stats = run_->traces.player_stats[i];
        EXPECT_EQ(stats.sessions, run_->traces.requests_generated[i]);
        EXPECT_GT(stats.video_flows, stats.sessions * 9 / 10);
        EXPECT_EQ(stats.failures.total(), 0u);
    }
}

TEST_F(StudyRunFixture, WeeklySeasonalityFollowsNetworkType) {
    // Section VII-A: every dataset has a clear day/night pattern; campuses
    // additionally empty out on the weekend (trace days 1-2) while
    // residential networks do not.
    for (std::size_t i = 0; i < 5; ++i) {
        const auto& ds = run_->traces.datasets[i];
        std::uint64_t weekend = 0, weekday = 0;
        std::uint64_t night = 0, evening = 0;
        for (const auto& r : ds.records) {
            const auto day = ytcdn::sim::day_index(r.start);
            (day == 1 || day == 2 ? weekend : weekday) += 1;
            const double hod = ytcdn::sim::hour_of_day(r.start);
            if (hod >= 3.0 && hod < 6.0) ++night;
            const bool campus = run_->deployment->vantage(i).tech ==
                                ytcdn::workload::AccessTech::Campus;
            if (campus ? (hod >= 13.0 && hod < 16.0) : (hod >= 20.0 && hod < 23.0)) {
                ++evening;
            }
        }
        // Day/night swing everywhere (same 3-hour windows compared).
        EXPECT_GT(evening, 3 * night) << ds.name;
        const double weekend_daily = static_cast<double>(weekend) / 2.0;
        const double weekday_daily = static_cast<double>(weekday) / 5.0;
        if (run_->deployment->vantage(i).tech ==
            ytcdn::workload::AccessTech::Campus) {
            EXPECT_LT(weekend_daily, 0.7 * weekday_daily) << ds.name;
        } else {
            EXPECT_GT(weekend_daily, 0.9 * weekday_daily) << ds.name;
        }
    }
}

TEST_F(StudyRunFixture, ResolutionMixIsPlausiblyTwentyTen) {
    // 2010-era YouTube: 360p dominates everywhere; HD is a small minority,
    // smaller still at the European networks.
    for (const auto& ds : run_->traces.datasets) {
        const auto shares = ytcdn::analysis::resolution_breakdown(ds);
        EXPECT_GT(shares[static_cast<int>(ytcdn::cdn::Resolution::R360)].flow_share,
                  0.45)
            << ds.name;
        const double hd =
            shares[static_cast<int>(ytcdn::cdn::Resolution::R720)].flow_share +
            shares[static_cast<int>(ytcdn::cdn::Resolution::R1080)].flow_share;
        EXPECT_LT(hd, 0.15) << ds.name;
    }
}

TEST_F(StudyRunFixture, SnifferSawAndRejectedBackgroundTraffic) {
    for (std::size_t i = 0; i < 5; ++i) {
        const auto observed = run_->traces.flows_observed[i];
        const auto ignored = run_->traces.flows_ignored[i];
        const auto classified = run_->traces.datasets[i].records.size();
        // The players emit only video flows, so the DPI keeps every one;
        // rejection of other traffic is covered by Classifier.RejectsOtherTraffic.
        EXPECT_EQ(observed, classified) << run_->traces.datasets[i].name;
        EXPECT_EQ(ignored, 0u) << run_->traces.datasets[i].name;
        // And nothing rejected may leak into the flow log: every record
        // parses as a genuine video request (already guaranteed by
        // classification, spot-check the resolution field).
        for (std::size_t k = 0; k < std::min<std::size_t>(classified, 50); ++k) {
            const auto& r = run_->traces.datasets[i].records[k];
            EXPECT_NE(cdn::itag_of(r.resolution), 0);
        }
    }
}

TEST_F(StudyRunFixture, ReportsRender) {
    EXPECT_EQ(study::make_table1(*run_).num_rows(), 5u);
    EXPECT_EQ(study::make_table2(*run_).num_rows(), 5u);
    const std::string t1 = study::make_table1(*run_).render();
    EXPECT_NE(t1.find("US-Campus"), std::string::npos);
    EXPECT_NE(t1.find("874649"), std::string::npos);  // paper reference column
}

}  // namespace
