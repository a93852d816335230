#pragma once

#include <cstdint>
#include <vector>

#include "geo/geo_point.hpp"
#include "geoloc/bestline.hpp"
#include "geoloc/landmark.hpp"
#include "net/rtt_model.hpp"
#include "util/parallel.hpp"

namespace ytcdn::geoloc {

/// Outcome of constraint-based geolocation of one target.
struct CbgResult {
    bool valid = false;
    geo::GeoPoint estimate;
    /// Radius of the confidence region: max distance from the estimate to
    /// any point of the feasible intersection area (the quantity Fig. 3
    /// plots a CDF of).
    double confidence_radius_km = 0.0;
    /// Estimated area of the intersection region.
    double region_area_km2 = 0.0;
    /// How many constraint circles participated.
    int circles_used = 0;
    /// True when the raw circles had empty intersection and radii had to be
    /// relaxed (measurement noise made some bound too tight).
    bool relaxed = false;
};

/// The disk {p : geo::distance_km(p, center) <= radius_km} as a membership
/// test for points taken row by row from a latitude/longitude grid.
///
/// contains() returns exactly what the distance comparison would, bit for
/// bit, but skips most of its cost: the latitude terms of the haversine `h`
/// are computed once per row (row()), and `h` is compared against the
/// disk's own threshold sin²(min(r/R, π)/2) instead of being turned into a
/// distance. Only points whose `h` falls within a relative 1e-9 of the
/// threshold pay for the exact R·2·asin(√h) comparison.
class DiskTest {
public:
    DiskTest(const geo::GeoPoint& center, double radius_km) noexcept;

    /// The latitude-only haversine terms for points at `lat_deg`.
    struct Row {
        double sin2_half_dlat = 0.0;
        double cos_product = 0.0;
    };
    /// `cos_lat` must be std::cos(geo::deg_to_rad(lat_deg)).
    [[nodiscard]] Row row(double lat_deg, double cos_lat) const noexcept;

    /// False when no point of the row can lie inside the disk.
    [[nodiscard]] bool may_contain(const Row& row) const noexcept {
        return row.sin2_half_dlat <= h_high_;
    }

    /// Same as geo::distance_km({row latitude, lon_deg}, center) <= radius_km.
    [[nodiscard]] bool contains(const Row& row, double lon_deg) const noexcept;

private:
    geo::GeoPoint center_;
    double radius_km_;
    double cos_center_lat_;
    double h_low_;   // h below this: certainly inside
    double h_high_;  // h above this: certainly outside
};

/// Constraint-Based Geolocation (Gueye, Ziviani, Crovella, Fdida — ToN'06),
/// the algorithm the paper uses to localize YouTube servers (Section V).
///
/// Each landmark converts its measured minimum RTT to the target into a
/// distance upper bound via its calibrated bestline; the target must lie in
/// the intersection of the resulting disks. The intersection is evaluated on
/// a geographic grid over the tightest disk; the estimate is the region
/// centroid.
class CbgLocator {
public:
    struct Config {
        int calibration_probes = 5;
        int target_probes = 5;
        /// Grid resolution per axis for region sampling.
        int grid = 72;
        /// Only the tightest `max_circles` constraints are intersected
        /// (looser ones are redundant and cost time).
        std::size_t max_circles = 30;
        /// Radius relaxation when the intersection comes up empty.
        double relax_step = 1.06;
        int max_relax_iters = 60;
    };

    CbgLocator(const net::RttModel& model, std::vector<Landmark> landmarks,
               const Config& config, std::uint64_t seed);

    /// Measures landmark-to-landmark RTTs and fits every bestline. Must be
    /// called once before locate(). Each landmark's measurement campaign
    /// runs as an independent task on the pool with a Pinger forked from
    /// (seed, landmark site id), so results are bit-identical at any thread
    /// count and independent of scheduling.
    void calibrate(util::ThreadPool& pool);
    /// Same, on the process-wide shared pool.
    void calibrate() { calibrate(util::shared_pool()); }

    [[nodiscard]] bool calibrated() const noexcept { return calibrated_; }
    [[nodiscard]] const std::vector<Landmark>& landmarks() const noexcept {
        return landmarks_;
    }
    [[nodiscard]] const Bestline& bestline(std::size_t i) const;

    /// Geolocates one target site. Thread-safe once calibrated: the probe
    /// RNG is forked per target from (seed, target id), never shared, so
    /// concurrent locate() calls over different targets are deterministic.
    [[nodiscard]] CbgResult locate(const net::NetSite& target) const;

private:
    struct Circle {
        geo::GeoPoint center;
        double radius_km = 0.0;
    };

    [[nodiscard]] CbgResult intersect(std::vector<Circle> circles) const;

    const net::RttModel* model_;
    std::vector<Landmark> landmarks_;
    Config config_;
    std::uint64_t seed_;
    std::vector<Bestline> bestlines_;
    bool calibrated_ = false;
};

}  // namespace ytcdn::geoloc
