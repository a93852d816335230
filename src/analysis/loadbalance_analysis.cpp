#include "analysis/loadbalance_analysis.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "analysis/session.hpp"
#include "sim/time.hpp"

namespace ytcdn::analysis {

namespace {

struct HourTally {
    std::vector<std::uint64_t> all;
    std::vector<std::uint64_t> preferred;
};

HourTally tally_hours(const capture::Dataset& dataset, std::span<const int> dc,
                      int preferred) {
    HourTally t;
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        const auto& r = dataset.records[i];
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        if (dc[i] < 0) continue;
        const auto hour = static_cast<std::size_t>(sim::hour_index(r.start));
        if (hour >= t.all.size()) {
            t.all.resize(hour + 1, 0);
            t.preferred.resize(hour + 1, 0);
        }
        ++t.all[hour];
        if (dc[i] == preferred) ++t.preferred[hour];
    }
    return t;
}

EmpiricalCdf non_preferred_cdf(const HourTally& t) {
    EmpiricalCdf cdf;
    for (std::size_t h = 0; h < t.all.size(); ++h) {
        if (t.all[h] == 0) continue;  // empty slots carry no sample
        const double np = static_cast<double>(t.all[h] - t.preferred[h]);
        cdf.add(np / static_cast<double>(t.all[h]));
    }
    cdf.finalize();
    return cdf;
}

HourlyLoadSeries preferred_series(const HourTally& t, const std::string& name) {
    HourlyLoadSeries out;
    out.fraction_preferred.name = name + " fraction-to-preferred";
    out.flows_per_hour.name = name + " video-flows-per-hour";
    for (std::size_t h = 0; h < t.all.size(); ++h) {
        const double x = static_cast<double>(h);
        out.flows_per_hour.points.emplace_back(x, static_cast<double>(t.all[h]));
        if (t.all[h] > 0) {
            out.fraction_preferred.points.emplace_back(
                x, static_cast<double>(t.preferred[h]) /
                       static_cast<double>(t.all[h]));
        }
    }
    return out;
}

double correlation_of(const HourTally& t, std::uint64_t min_flows) {
    Series flows, np_fraction;
    for (std::size_t h = 0; h < t.all.size(); ++h) {
        if (t.all[h] < min_flows) continue;
        const double x = static_cast<double>(h);
        flows.points.emplace_back(x, static_cast<double>(t.all[h]));
        np_fraction.points.emplace_back(
            x, static_cast<double>(t.all[h] - t.preferred[h]) /
                   static_cast<double>(t.all[h]));
    }
    return pearson_correlation(flows, np_fraction);
}

}  // namespace

EmpiricalCdf hourly_non_preferred_fraction(const capture::Dataset& dataset,
                                           std::span<const int> dc, int preferred) {
    return non_preferred_cdf(tally_hours(dataset, dc, preferred));
}

HourlyLoadSeries hourly_preferred_series(const capture::Dataset& dataset,
                                         std::span<const int> dc, int preferred) {
    return preferred_series(tally_hours(dataset, dc, preferred), dataset.name);
}

double pearson_correlation(const Series& a, const Series& b) {
    const std::size_t n = std::min(a.points.size(), b.points.size());
    if (n < 3) return 0.0;
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a.points[i].second;
        mb += b.points[i].second;
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a.points[i].second - ma;
        const double db = b.points[i].second - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
}

double load_vs_nonpreferred_correlation(const capture::Dataset& dataset,
                                        std::span<const int> dc, int preferred,
                                        std::uint64_t min_flows) {
    return correlation_of(tally_hours(dataset, dc, preferred), min_flows);
}

}  // namespace ytcdn::analysis
