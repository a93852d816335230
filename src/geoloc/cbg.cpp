#include "geoloc/cbg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "net/pinger.hpp"
#include "sim/random.hpp"
#include "util/metrics.hpp"

namespace ytcdn::geoloc {

namespace {

/// locate() runs on pool threads, but each target is located exactly once
/// per study regardless of schedule, so these logical counts stay
/// thread-count-invariant (the metrics determinism contract).
struct CbgMetrics {
    util::metrics::Counter calibrations = util::metrics::counter("geoloc.cbg.calibrations");
    util::metrics::Counter locates = util::metrics::counter("geoloc.cbg.locates");
    util::metrics::Counter relaxed = util::metrics::counter("geoloc.cbg.relaxed");
    util::metrics::Counter invalid = util::metrics::counter("geoloc.cbg.invalid");
    util::metrics::Histogram circles_used = util::metrics::histogram(
        "geoloc.cbg.circles_used", {4.0, 8.0, 16.0, 32.0});
};

CbgMetrics& cbg_metrics() {
    static CbgMetrics metrics;
    return metrics;
}

/// Per-task Pinger seed: a stable function of the locator seed, a stage tag
/// and the task's entity id. Forking here (instead of advancing one shared
/// engine) is what makes calibration and location schedule-independent.
std::uint64_t probe_seed(std::uint64_t seed, std::string_view stage,
                         std::uint64_t entity_id) {
    return sim::mix64(seed ^ sim::hash_string(stage) ^ sim::mix64(entity_id));
}

/// Relative half-width of the band around a disk's haversine threshold in
/// which DiskTest falls back to the exact distance. Rounding in h, in the
/// threshold and in R·2·asin(√h) is ~1e-15 relative, so 1e-9 leaves every
/// decision outside the band exact.
constexpr double kThresholdMargin = 1e-9;

}  // namespace

DiskTest::DiskTest(const geo::GeoPoint& center, double radius_km) noexcept
    : center_(center),
      radius_km_(radius_km),
      cos_center_lat_(std::cos(geo::deg_to_rad(center.lat_deg))) {
    const double s = std::sin(std::min(radius_km / geo::kEarthRadiusKm, M_PI) / 2.0);
    const double threshold = s * s;
    h_low_ = threshold * (1.0 - kThresholdMargin);
    h_high_ = threshold * (1.0 + kThresholdMargin);
}

DiskTest::Row DiskTest::row(double lat_deg, double cos_lat) const noexcept {
    // Operands as in geo::distance_km(point, center), so h rounds the same.
    const double s = std::sin(geo::deg_to_rad(center_.lat_deg - lat_deg) / 2.0);
    return Row{s * s, cos_lat * cos_center_lat_};
}

bool DiskTest::contains(const Row& row, double lon_deg) const noexcept {
    const double s = std::sin(geo::deg_to_rad(center_.lon_deg - lon_deg) / 2.0);
    const double h = row.sin2_half_dlat + row.cos_product * s * s;
    if (h < h_low_) return true;
    if (h > h_high_) return false;
    const double d =
        geo::kEarthRadiusKm * (2.0 * std::asin(std::sqrt(std::clamp(h, 0.0, 1.0))));
    return d <= radius_km_;
}

CbgLocator::CbgLocator(const net::RttModel& model, std::vector<Landmark> landmarks,
                       const Config& config, std::uint64_t seed)
    : model_(&model), landmarks_(std::move(landmarks)), config_(config), seed_(seed) {
    if (landmarks_.size() < 3) {
        throw std::invalid_argument("CbgLocator: need at least 3 landmarks");
    }
    if (config_.grid < 8) throw std::invalid_argument("CbgLocator: grid too coarse");
}

void CbgLocator::calibrate(util::ThreadPool& pool) {
    // Explicit this-capture: the closure reads members (model_, seed_,
    // landmarks_, config_) and mutates nothing — ytcdn-parallel-shared-mutation
    // verifies that over the AST.
    bestlines_ = util::parallel_map(pool, landmarks_, [this](const Landmark& self) {
        net::Pinger pinger(*model_, probe_seed(seed_, "cbg-calibrate", self.site.id));
        std::vector<CalibrationPoint> points;
        points.reserve(landmarks_.size() - 1);
        for (const auto& peer : landmarks_) {
            if (peer.site.id == self.site.id) continue;
            CalibrationPoint p;
            p.distance_km = geo::distance_km(self.site.location, peer.site.location);
            p.min_rtt_ms =
                pinger.min_rtt_ms(self.site, peer.site, config_.calibration_probes);
            points.push_back(p);
        }
        return fit_bestline(points);
    });
    calibrated_ = true;
    cbg_metrics().calibrations.inc();
}

const Bestline& CbgLocator::bestline(std::size_t i) const {
    if (!calibrated_) throw std::logic_error("CbgLocator: calibrate() first");
    return bestlines_.at(i);
}

CbgResult CbgLocator::locate(const net::NetSite& target) const {
    if (!calibrated_) throw std::logic_error("CbgLocator: calibrate() first");
    cbg_metrics().locates.inc();

    net::Pinger pinger(*model_, probe_seed(seed_, "cbg-locate", target.id));
    std::vector<Circle> circles;
    circles.reserve(landmarks_.size());
    for (std::size_t i = 0; i < landmarks_.size(); ++i) {
        const double rtt =
            pinger.min_rtt_ms(landmarks_[i].site, target, config_.target_probes);
        const double bound = bestlines_[i].distance_bound_km(rtt);
        if (bound <= 0.0) continue;
        circles.push_back(Circle{landmarks_[i].site.location, bound});
    }
    if (circles.empty()) {
        cbg_metrics().invalid.inc();
        return CbgResult{};
    }

    std::sort(circles.begin(), circles.end(),
              [](const Circle& a, const Circle& b) { return a.radius_km < b.radius_km; });
    if (circles.size() > config_.max_circles) circles.resize(config_.max_circles);
    return intersect(std::move(circles));
}

CbgResult CbgLocator::intersect(std::vector<Circle> circles) const {
    CbgResult result;
    result.circles_used = static_cast<int>(circles.size());
    cbg_metrics().circles_used.observe(static_cast<double>(circles.size()));

    std::vector<DiskTest> disks;
    std::vector<DiskTest::Row> rows(circles.size());
    for (int iter = 0; iter <= config_.max_relax_iters; ++iter) {
        // Grid over the bounding box of the tightest circle. Latitude rows
        // carry a cos(lat) cell-width correction for area and spacing.
        const Circle& tight = circles.front();
        const double r = tight.radius_km;
        const double dlat = r / 111.0;  // degrees latitude per km is ~1/111

        disks.clear();
        for (const auto& c : circles) disks.emplace_back(c.center, c.radius_km);

        const int n = config_.grid;
        double sum_lat = 0.0;
        double sum_lon = 0.0;
        double area = 0.0;
        std::vector<geo::GeoPoint> accepted;
        accepted.reserve(64);

        for (int yi = 0; yi < n; ++yi) {
            const double lat =
                tight.center.lat_deg - dlat + 2.0 * dlat * (yi + 0.5) / n;
            if (lat < -90.0 || lat > 90.0) continue;
            const double cos_lat_exact = std::cos(geo::deg_to_rad(lat));
            // A row outside any disk's latitude band holds no inside point.
            bool row_may_hit = true;
            for (std::size_t k = 0; k < disks.size() && row_may_hit; ++k) {
                rows[k] = disks[k].row(lat, cos_lat_exact);
                row_may_hit = disks[k].may_contain(rows[k]);
            }
            if (!row_may_hit) continue;
            const double cos_lat = std::max(0.05, cos_lat_exact);
            const double dlon = r / (111.0 * cos_lat);
            for (int xi = 0; xi < n; ++xi) {
                double lon =
                    tight.center.lon_deg - dlon + 2.0 * dlon * (xi + 0.5) / n;
                if (lon > 180.0) lon -= 360.0;
                if (lon < -180.0) lon += 360.0;
                bool inside = true;
                for (std::size_t k = 0; k < disks.size(); ++k) {
                    if (!disks[k].contains(rows[k], lon)) {
                        inside = false;
                        break;
                    }
                }
                if (!inside) continue;
                const geo::GeoPoint p{lat, lon};
                accepted.push_back(p);
                sum_lat += lat;
                sum_lon += lon;
                // Cell size in km^2 at this row.
                const double cell_h = 2.0 * r / n;          // km (lat direction)
                const double cell_w = 2.0 * r / n;          // km (lon direction)
                area += cell_h * cell_w;
            }
        }

        if (!accepted.empty()) {
            result.valid = true;
            result.relaxed = iter > 0;
            if (result.relaxed) cbg_metrics().relaxed.inc();
            result.estimate =
                geo::GeoPoint{sum_lat / static_cast<double>(accepted.size()),
                              sum_lon / static_cast<double>(accepted.size())};
            double max_d = 0.0;
            for (const auto& p : accepted) {
                max_d = std::max(max_d, geo::distance_km(result.estimate, p));
            }
            // Half a cell diagonal accounts for grid discretization.
            const double cell_km = 2.0 * circles.front().radius_km / n;
            result.confidence_radius_km = max_d + cell_km * 0.7071;
            result.region_area_km2 = area;
            return result;
        }

        // Empty intersection: measurement noise made some bound too tight;
        // relax all radii and retry, as CBG implementations do.
        for (auto& c : circles) c.radius_km *= config_.relax_step;
    }
    cbg_metrics().invalid.inc();
    return result;  // invalid
}

}  // namespace ytcdn::geoloc
