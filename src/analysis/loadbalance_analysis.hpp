#pragma once

#include <span>

#include "analysis/series.hpp"
#include "analysis/stats.hpp"
#include "capture/dataset.hpp"

namespace ytcdn::analysis {

/// Every analysis here takes the dataset with its dc_column (see
/// analysis/session.hpp): `dc[i]` is the data center of records[i]'s
/// server, -1 when unmapped (out of scope).

/// Fig. 9: the distribution over one-hour slots of the fraction of video
/// flows directed to non-preferred data centers.
[[nodiscard]] EmpiricalCdf hourly_non_preferred_fraction(const capture::Dataset& dataset,
                                                         std::span<const int> dc,
                                                         int preferred);

/// Fig. 11: per-hour fraction of video flows served by the preferred (EU2:
/// in-ISP) data center, and the per-hour total number of video flows.
struct HourlyLoadSeries {
    Series fraction_preferred;  // x = hour index, y in [0, 1]
    Series flows_per_hour;      // x = hour index, y = count
};
[[nodiscard]] HourlyLoadSeries hourly_preferred_series(const capture::Dataset& dataset,
                                                       std::span<const int> dc,
                                                       int preferred);

/// Pearson correlation between two series' y-values, matched by index.
/// Returns 0 when either series is degenerate (constant or too short).
[[nodiscard]] double pearson_correlation(const Series& a, const Series& b);

/// Section VII-A's discriminator: at EU2 the hourly non-preferred fraction
/// tracks the hourly request volume (adaptive DNS balancing reacts to
/// load); at the other vantage points "there is much less correlation with
/// the number of requests". Computes corr(flows/hour, non-preferred
/// fraction/hour) over hours with at least `min_flows` video flows.
[[nodiscard]] double load_vs_nonpreferred_correlation(const capture::Dataset& dataset,
                                                      std::span<const int> dc,
                                                      int preferred,
                                                      std::uint64_t min_flows = 5);

}  // namespace ytcdn::analysis
