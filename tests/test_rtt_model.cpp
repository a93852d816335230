#include "net/rtt_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "net/pinger.hpp"

namespace net = ytcdn::net;

namespace {

net::NetSite site(std::uint64_t id, double lat, double lon, double access = 1.0) {
    return net::NetSite{id, {lat, lon}, access};
}

TEST(RttModel, BaseRttGrowsWithDistance) {
    const net::RttModel model;
    const auto turin = site(1, 45.07, 7.69);
    const auto milan = site(2, 45.46, 9.19);
    const auto nyc = site(3, 40.71, -74.01);
    EXPECT_LT(model.base_rtt_ms(turin, milan), model.base_rtt_ms(turin, nyc));
}

TEST(RttModel, BaseRttIsSymmetricAndDeterministic) {
    const net::RttModel model;
    const auto a = site(10, 45.07, 7.69);
    const auto b = site(20, 50.11, 8.68);
    EXPECT_DOUBLE_EQ(model.base_rtt_ms(a, b), model.base_rtt_ms(b, a));
    EXPECT_DOUBLE_EQ(model.base_rtt_ms(a, b), model.base_rtt_ms(a, b));
}

TEST(RttModel, LoopbackIsAccessLatency) {
    const net::RttModel model;
    const auto a = site(1, 45.0, 7.0, 16.0);
    EXPECT_DOUBLE_EQ(model.base_rtt_ms(a, a), 16.0);
}

TEST(RttModel, InflationWithinConfiguredRange) {
    net::RttModel::Config cfg;
    cfg.min_inflation = 1.2;
    cfg.max_inflation = 1.8;
    const net::RttModel model(cfg);
    for (std::uint64_t a = 0; a < 30; ++a) {
        for (std::uint64_t b = a + 1; b < 30; ++b) {
            const double f = model.inflation(a, b);
            EXPECT_GE(f, 1.2);
            EXPECT_LE(f, 1.8);
            EXPECT_DOUBLE_EQ(f, model.inflation(b, a));  // symmetric
        }
    }
}

TEST(RttModel, InflationOverrideApplies) {
    net::RttModel model;
    model.set_inflation(7, 9, 5.0);
    EXPECT_DOUBLE_EQ(model.inflation(7, 9), 5.0);
    EXPECT_DOUBLE_EQ(model.inflation(9, 7), 5.0);

    const auto a = site(7, 40.43, -86.91, 0.0);
    const auto b = site(9, 41.88, -87.63, 0.0);
    const double d = ytcdn::geo::distance_km(a.location, b.location);
    EXPECT_NEAR(model.base_rtt_ms(a, b),
                d * model.config().ms_per_km * 5.0 + model.config().base_overhead_ms,
                1e-9);
}

TEST(RttModel, OverrideCanReorderRttVsDistance) {
    // The Fig. 7 vs Fig. 8 decoupling: a farther site can have lower RTT.
    net::RttModel model;
    const auto client = site(1, 40.43, -86.91);
    const auto near_dc = site(2, 41.88, -87.63);   // Chicago, ~170 km
    const auto far_dc = site(3, 32.78, -96.80);    // Dallas, ~1300 km
    model.set_inflation(1, 2, 14.0);
    model.set_inflation(1, 3, 1.12);
    EXPECT_LT(model.base_rtt_ms(client, far_dc), model.base_rtt_ms(client, near_dc));
}

TEST(RttModel, SampleAlwaysAtLeastBase) {
    const net::RttModel model;
    const auto a = site(1, 45.0, 7.0);
    const auto b = site(2, 48.0, 11.0);
    const double base = model.base_rtt_ms(a, b);
    std::mt19937_64 rng(42);
    for (int i = 0; i < 500; ++i) {
        EXPECT_GE(model.sample_rtt_ms(a, b, rng), base);
    }
}

TEST(RttModel, InvalidConfigThrows) {
    net::RttModel::Config bad;
    bad.ms_per_km = 0.0;
    EXPECT_THROW(net::RttModel{bad}, std::invalid_argument);
    bad = {};
    bad.min_inflation = 0.9;
    EXPECT_THROW(net::RttModel{bad}, std::invalid_argument);
    bad = {};
    bad.max_inflation = 1.0;
    bad.min_inflation = 1.5;
    EXPECT_THROW(net::RttModel{bad}, std::invalid_argument);
}

TEST(RttModel, SetInflationBelowOneThrows) {
    net::RttModel model;
    EXPECT_THROW(model.set_inflation(1, 2, 0.5), std::invalid_argument);
}

TEST(Pinger, MinIsAtMostAvgAtMostMax) {
    const net::RttModel model;
    net::Pinger pinger(model, 7);
    const auto a = site(1, 45.0, 7.0);
    const auto b = site(2, 50.0, 9.0);
    const auto stats = pinger.ping(a, b, 20);
    EXPECT_EQ(stats.probes, 20);
    EXPECT_LE(stats.min_ms, stats.avg_ms);
    EXPECT_LE(stats.avg_ms, stats.max_ms);
    EXPECT_GE(stats.stddev_ms, 0.0);
    EXPECT_GE(stats.min_ms, model.base_rtt_ms(a, b));
}

TEST(Pinger, MoreProbesTightenMinTowardBase) {
    const net::RttModel model;
    net::Pinger pinger(model, 11);
    const auto a = site(1, 45.0, 7.0);
    const auto b = site(2, 50.0, 9.0);
    const double base = model.base_rtt_ms(a, b);
    const double min50 = pinger.min_rtt_ms(a, b, 50);
    // With 50 exponential draws the min should be within ~1 ms of base.
    EXPECT_NEAR(min50, base, 1.0);
}

TEST(Pinger, ZeroProbesThrows) {
    const net::RttModel model;
    net::Pinger pinger(model);
    EXPECT_THROW((void)pinger.ping(site(1, 0, 0), site(2, 1, 1), 0),
                 std::invalid_argument);
}

}  // namespace

/// Pinger::ping as a loop over sample_rtt_ms, the per-probe definition.
net::PingStats reference_ping(const net::RttModel& model, std::mt19937_64& rng,
                              const net::NetSite& src, const net::NetSite& dst,
                              int probes) {
    net::PingStats stats;
    stats.probes = probes;
    double sum = 0.0;
    double sum_sq = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = 0.0;
    for (int i = 0; i < probes; ++i) {
        const double rtt = model.sample_rtt_ms(src, dst, rng);
        sum += rtt;
        sum_sq += rtt * rtt;
        min = std::min(min, rtt);
        max = std::max(max, rtt);
    }
    stats.min_ms = min;
    stats.max_ms = max;
    stats.avg_ms = sum / probes;
    stats.stddev_ms =
        std::sqrt(std::max(0.0, sum_sq / probes - stats.avg_ms * stats.avg_ms));
    return stats;
}

TEST(Pinger, StatsMatchAPerSampleReference) {
    // ping() computes the path's base RTT once and adds a jitter draw per
    // probe; that must be sample_rtt_ms per probe, bit for bit, over one
    // continuing RNG stream.
    net::RttModel model;
    model.set_inflation(1, 5, 3.5);
    const std::uint64_t seed = 0x5EEDull;
    net::Pinger pinger(model, seed);
    std::mt19937_64 rng(seed);
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    for (std::uint64_t i = 1; i <= 30; ++i) {
        const auto src = site(1, 45.0, 7.0, 0.37);
        const auto dst = site(i + 1, 45.0 - 4.1 * static_cast<double>(i),
                              7.0 + 11.3 * static_cast<double>(i),
                              0.81 + 0.137 * static_cast<double>(i));
        const int probes = 1 + static_cast<int>(i % 5) * 4;
        const auto got = pinger.ping(src, dst, probes);
        const auto want = reference_ping(model, rng, src, dst, probes);
        SCOPED_TRACE(i);
        EXPECT_EQ(got.probes, want.probes);
        EXPECT_EQ(bits(got.min_ms), bits(want.min_ms));
        EXPECT_EQ(bits(got.max_ms), bits(want.max_ms));
        EXPECT_EQ(bits(got.avg_ms), bits(want.avg_ms));
        EXPECT_EQ(bits(got.stddev_ms), bits(want.stddev_ms));
    }
}
