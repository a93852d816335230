// analysis::loadbalance unit tests pinned to the paper's load-balancing
// findings: Fig. 9 (hourly non-preferred fraction distribution), Fig. 11
// (per-hour preferred share vs volume) and the Section VII-A discriminator —
// at EU2 the overflow fraction rises with daytime request volume (adaptive
// DNS load balancing), while a vantage point with load-independent overflow
// shows no such correlation.

#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "analysis/session.hpp"
#include "sim/time.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace geo = ytcdn::geo;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

/// Two-DC world matching test_analysis.cpp: Milan (preferred, 10 ms) and
/// Frankfurt (30 ms); servers 173.194.<dc>.<host>, clients 10.0.0.<host>.
class LoadBalanceFixture : public ::testing::Test {
protected:
    LoadBalanceFixture() {
        milan_ = map_.add_data_center(
            {"Milan", {45.46, 9.19}, geo::Continent::Europe, 10.0, 125.0});
        frankfurt_ = map_.add_data_center(
            {"Frankfurt", {50.11, 8.68}, geo::Continent::Europe, 30.0, 550.0});
        map_.assign(server(0), milan_);
        map_.assign(server(1), frankfurt_);
        ds_.name = "EU2";
    }

    static net::IpAddress server(int dc) {
        return net::IpAddress::from_octets(173, 194, static_cast<std::uint8_t>(dc), 1);
    }

    void add_flow(int dc, double t, std::uint64_t bytes = 10'000,
                  std::uint64_t video = 1) {
        capture::FlowRecord r;
        r.client_ip = net::IpAddress::from_octets(10, 0, 0, 1);
        r.server_ip = server(dc);
        r.video = cdn::VideoId{video};
        r.start = t;
        r.end = t + 10.0;
        r.bytes = bytes;
        ds_.records.push_back(r);
    }

    /// ds_'s hourly (all, preferred) tallies under map_ (Figs 9, 11).
    [[nodiscard]] analysis::IncrementalHourlyLoad hourly() const {
        return analysis::fold_records(ds_, map_,
                                      analysis::IncrementalHourlyLoad(milan_, ds_.name));
    }
    analysis::ServerDcMap map_;
    capture::Dataset ds_;
    int milan_{}, frankfurt_{};
};

TEST_F(LoadBalanceFixture, EmptyDatasetYieldsEmptyDistribution) {
    const auto cdf = hourly().non_preferred_cdf();
    EXPECT_EQ(cdf.size(), 0u);
    const auto series = hourly().preferred_series();
    EXPECT_TRUE(series.flows_per_hour.points.empty());
    EXPECT_DOUBLE_EQ(
        hourly().correlation(), 0.0);
}

TEST_F(LoadBalanceFixture, ControlFlowsAndUnmappedServersAreExcluded) {
    add_flow(0, 10.0);
    add_flow(1, 20.0, /*bytes=*/500);  // control flow: below the video cutoff
    capture::FlowRecord legacy;        // unmapped (legacy namespace) server
    legacy.client_ip = net::IpAddress::from_octets(10, 0, 0, 1);
    legacy.server_ip = net::IpAddress::from_octets(212, 187, 0, 1);
    legacy.video = cdn::VideoId{2};
    legacy.start = 30.0;
    legacy.end = 40.0;
    legacy.bytes = 10'000;
    ds_.records.push_back(legacy);

    const auto cdf = hourly().non_preferred_cdf();
    ASSERT_EQ(cdf.size(), 1u);
    EXPECT_DOUBLE_EQ(cdf.max(), 0.0);  // the only counted flow was preferred
    const auto series = hourly().preferred_series();
    ASSERT_EQ(series.flows_per_hour.points.size(), 1u);
    EXPECT_DOUBLE_EQ(series.flows_per_hour.points[0].second, 1.0);
}

TEST_F(LoadBalanceFixture, EmptyHoursCarryNoSampleButKeepTheTimeAxis) {
    add_flow(0, 10.0);                  // hour 0
    add_flow(1, 3 * sim::kHour + 5.0);  // hour 3; hours 1-2 silent
    const auto cdf = hourly().non_preferred_cdf();
    EXPECT_EQ(cdf.size(), 2u);  // silent hours contribute no 0/0 sample
    const auto series = hourly().preferred_series();
    ASSERT_EQ(series.flows_per_hour.points.size(), 4u);  // axis spans 0..3
    EXPECT_DOUBLE_EQ(series.flows_per_hour.points[1].second, 0.0);
    // fraction_preferred is undefined on silent hours: only 2 points.
    ASSERT_EQ(series.fraction_preferred.points.size(), 2u);
    EXPECT_DOUBLE_EQ(series.fraction_preferred.points[0].second, 1.0);
    EXPECT_DOUBLE_EQ(series.fraction_preferred.points[1].second, 0.0);
}

TEST_F(LoadBalanceFixture, DaytimeOverflowOrderingMatchesEu2) {
    // Fig. 11's EU2 shape: quiet night hours are fully served by the in-ISP
    // DC; busy daytime hours overflow ~40% of video flows to Frankfurt. The
    // hourly non-preferred fractions must then split into two masses with
    // the daytime one strictly above the night one.
    for (int h = 0; h < 24; ++h) {
        const bool daytime = h >= 8 && h < 20;
        const int flows = daytime ? 20 : 5;
        const int overflow = daytime ? 8 : 0;
        for (int i = 0; i < flows; ++i) {
            add_flow(i < overflow ? 1 : 0, h * sim::kHour + i * 60.0);
        }
    }
    const auto cdf = hourly().non_preferred_cdf();
    ASSERT_EQ(cdf.size(), 24u);
    EXPECT_DOUBLE_EQ(cdf.min(), 0.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 0.4);
    // 12 of 24 hours sit at zero overflow; the daytime mass is all at 0.4.
    EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(0.39), 0.5);

    // And the discriminator: overflow tracks volume almost perfectly.
    EXPECT_GT(hourly().correlation(),
              0.99);
}

TEST_F(LoadBalanceFixture, LoadIndependentOverflowShowsNoCorrelation) {
    // The non-EU2 vantage points: a constant ~20% of flows goes elsewhere
    // regardless of volume, so corr(load, overflow fraction) ~ 0.
    for (int h = 0; h < 24; ++h) {
        const int flows = h % 2 == 0 ? 20 : 10;
        for (int i = 0; i < flows; ++i) {
            add_flow(i % 5 == 0 ? 1 : 0, h * sim::kHour + i * 60.0);
        }
    }
    const double corr =
        hourly().correlation();
    EXPECT_LT(std::abs(corr), 0.05);
}

TEST_F(LoadBalanceFixture, CorrelationMinFlowsDropsQuietHours) {
    // Busy hours follow the adaptive-DNS pattern; a handful of nearly-empty
    // hours carry pathological 100% overflow samples. The min_flows guard
    // must keep them from poisoning the discriminator.
    for (int h = 0; h < 12; ++h) {
        const int flows = 10 + h;
        const int overflow = h;  // overflow grows with load
        for (int i = 0; i < flows; ++i) {
            add_flow(i < overflow ? 1 : 0, h * sim::kHour + i * 60.0);
        }
    }
    for (int h = 12; h < 24; ++h) {
        add_flow(1, h * sim::kHour + 5.0);  // 1 flow, 100% non-preferred
    }
    const double guarded =
        hourly().correlation(5);
    const double unguarded =
        hourly().correlation(1);
    EXPECT_GT(guarded, 0.95);
    EXPECT_LT(unguarded, guarded);
}

TEST(PearsonCorrelation, DegenerateInputsReturnZero) {
    const analysis::Series a{"a", {{0, 1.0}, {1, 2.0}, {2, 3.0}}};
    const analysis::Series two{"two", {{0, 1.0}, {1, 2.0}}};
    EXPECT_DOUBLE_EQ(analysis::pearson_correlation(a, two), 0.0);  // n < 3
    const analysis::Series empty{"e", {}};
    EXPECT_DOUBLE_EQ(analysis::pearson_correlation(a, empty), 0.0);
    EXPECT_DOUBLE_EQ(analysis::pearson_correlation(empty, empty), 0.0);
}

TEST(PearsonCorrelation, MismatchedLengthsUseTheCommonPrefix) {
    const analysis::Series a{"a", {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}}};
    const analysis::Series b{"b", {{0, 3.0}, {1, 6.0}, {2, 9.0}}};
    EXPECT_NEAR(analysis::pearson_correlation(a, b), 1.0, 1e-12);
}

}  // namespace
