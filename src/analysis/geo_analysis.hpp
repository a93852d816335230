#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/series.hpp"
#include "geoloc/dc_clustering.hpp"

namespace ytcdn::analysis {

/// Table III: distinct servers per continent bucket for one dataset.
struct ContinentCounts {
    std::size_t north_america = 0;
    std::size_t europe = 0;
    std::size_t others = 0;
    std::size_t unlocated = 0;

    [[nodiscard]] std::size_t located_total() const noexcept {
        return north_america + europe + others;
    }
};

/// Counts located servers per continent bucket (Table III's columns).
[[nodiscard]] ContinentCounts servers_per_continent(
    const std::vector<geoloc::LocatedServer>& servers);

/// Fig. 7: cumulative fraction of a vantage point's mapped bytes served by
/// data centers with RTT (from the probe PC) below x. One step per data
/// center, sorted by RTT. `traffic` is IncrementalDcTraffic::traffic() of
/// the dataset named `name`.
[[nodiscard]] Series bytes_vs_rtt(const std::vector<DcTraffic>& traffic,
                                  const ServerDcMap& map, const std::string& name);

/// Fig. 8: same, ordered by great-circle distance instead of RTT.
[[nodiscard]] Series bytes_vs_distance(const std::vector<DcTraffic>& traffic,
                                       const ServerDcMap& map,
                                       const std::string& name);

}  // namespace ytcdn::analysis
