#include "analysis/loadbalance_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

EmpiricalCdf hourly_non_preferred_fraction(const capture::Dataset& dataset,
                                           std::span<const int> dc, int preferred) {
    return fold_records(dataset, dc, IncrementalHourlyLoad(preferred, dataset.name))
        .non_preferred_cdf();
}

HourlyLoadSeries hourly_preferred_series(const capture::Dataset& dataset,
                                         std::span<const int> dc, int preferred) {
    return fold_records(dataset, dc, IncrementalHourlyLoad(preferred, dataset.name))
        .preferred_series();
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
    return fold_records(dataset, dc, IncrementalHourlyLoad(preferred, dataset.name))
        .correlation(min_flows);
}

}  // namespace ytcdn::analysis
