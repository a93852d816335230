#include "sim/zipf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace sim = ytcdn::sim;

namespace {

/// GuidedCdf::lower_bound against std::lower_bound at every value of the
/// table, one ulp either side of it, and at `random` uniform points.
std::size_t guide_mismatches(const sim::GuidedCdf& cdf, std::size_t random) {
    const auto& v = cdf.values();
    std::size_t bad = 0;
    const auto check = [&](double u) {
        const auto want =
            static_cast<std::size_t>(std::lower_bound(v.begin(), v.end(), u) - v.begin());
        if (cdf.lower_bound(u) != want) ++bad;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double x : v) {
        check(x);
        check(std::nextafter(x, -kInf));
        check(std::nextafter(x, kInf));
    }
    check(0.0);
    check(-1.0);
    check(v.back() * 2.0);
    check(std::numeric_limits<double>::quiet_NaN());
    sim::Rng rng(4242);
    for (std::size_t i = 0; i < random; ++i) check(rng.uniform(0.0, v.back()));
    return bad;
}


TEST(Zipf, PmfSumsToOne) {
    const sim::ZipfDistribution z(1000, 0.9);
    double sum = 0.0;
    for (std::size_t k = 0; k < z.size(); ++k) sum += z.pmf(k);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, PmfIsMonotoneDecreasing) {
    const sim::ZipfDistribution z(500, 1.1);
    for (std::size_t k = 1; k < z.size(); ++k) {
        EXPECT_LE(z.pmf(k), z.pmf(k - 1) + 1e-12) << k;
    }
}

TEST(Zipf, ZeroExponentIsUniform) {
    const sim::ZipfDistribution z(100, 0.0);
    for (std::size_t k = 0; k < z.size(); ++k) {
        EXPECT_NEAR(z.pmf(k), 0.01, 1e-9);
    }
}

TEST(Zipf, SampleMatchesPmfForHead) {
    const sim::ZipfDistribution z(10000, 0.8);
    sim::Rng rng(77);
    const int n = 50000;
    int rank0 = 0;
    for (int i = 0; i < n; ++i) {
        if (z.sample(rng) == 0) ++rank0;
    }
    EXPECT_NEAR(static_cast<double>(rank0) / n, z.pmf(0), 0.01);
}

TEST(Zipf, SamplesInRange) {
    const sim::ZipfDistribution z(50, 1.0);
    sim::Rng rng(78);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_LT(z.sample(rng), 50u);
    }
}

TEST(Zipf, SingleRankAlwaysZero) {
    const sim::ZipfDistribution z(1, 1.0);
    sim::Rng rng(79);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(z.sample(rng), 0u);
    EXPECT_NEAR(z.pmf(0), 1.0, 1e-12);
}

TEST(Zipf, InvalidArgsThrow) {
    EXPECT_THROW(sim::ZipfDistribution(0, 1.0), std::invalid_argument);
    EXPECT_THROW(sim::ZipfDistribution(10, -0.5), std::invalid_argument);
    const sim::ZipfDistribution z(10, 1.0);
    EXPECT_THROW((void)z.pmf(10), std::out_of_range);
}

/// Property sweep over exponents: higher exponent concentrates more mass on
/// the head.
class ZipfExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfExponentSweep, HeadMassGrowsWithExponent) {
    const double s = GetParam();
    const sim::ZipfDistribution lo(2000, s);
    const sim::ZipfDistribution hi(2000, s + 0.3);
    double lo_head = 0.0, hi_head = 0.0;
    for (std::size_t k = 0; k < 20; ++k) {
        lo_head += lo.pmf(k);
        hi_head += hi.pmf(k);
    }
    EXPECT_GT(hi_head, lo_head);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ZipfExponentSweep,
                         ::testing::Values(0.0, 0.4, 0.8, 1.0, 1.4));

TEST(GuidedCdf, ZipfTableReturnsLowerBoundEverywhere) {
    // scale_stream's catalog size, at both exponents the configs use.
    for (const double s : {0.8, 0.9}) {
        const sim::ZipfDistribution z(30816, s);
        EXPECT_EQ(guide_mismatches(z.cdf(), 200000), 0u) << s;
    }
    EXPECT_EQ(guide_mismatches(sim::ZipfDistribution(1, 0.9).cdf(), 1000), 0u);
    EXPECT_EQ(guide_mismatches(sim::ZipfDistribution(100, 0.0).cdf(), 1000), 0u);
}

TEST(GuidedCdf, FlatRunsAndZeroWeightsKeepTheFirstIndex) {
    const sim::GuidedCdf cdf({0.0, 0.0, 1.0, 1.0, 1.0, 2.5, 2.5, 7.0});
    EXPECT_EQ(guide_mismatches(cdf, 10000), 0u);
    EXPECT_EQ(cdf.lower_bound(1.0), 2u);
    EXPECT_EQ(cdf.lower_bound(0.0), 0u);
    EXPECT_EQ(cdf.lower_bound(7.5), 8u);
    EXPECT_EQ(sim::GuidedCdf({0.0, 0.0}).lower_bound(0.0), 0u);
    EXPECT_EQ(sim::GuidedCdf().lower_bound(0.5), 0u);
}

}  // namespace
