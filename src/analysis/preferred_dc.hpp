#pragma once

#include <cstdint>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/flow_replay.hpp"

namespace ytcdn::analysis {

/// Byte and flow tallies per data center for one dataset.
struct DcTraffic {
    int dc = -1;
    std::uint64_t bytes = 0;
    std::uint64_t video_flows = 0;
};

/// Per-data-center traffic for the dataset; includes only flows whose
/// server maps to a known data center. Sorted by bytes descending.
[[nodiscard]] std::vector<DcTraffic> traffic_by_dc(const capture::FlowReplay& dataset,
                                                   const ServerDcMap& map);

/// Determines the *preferred* data center (Section VI-B): the data center
/// carrying the most bytes — except when several data centers carry a large
/// share (EU2's split between the in-ISP cache and an external site), in
/// which case the paper labels the lowest-RTT heavy hitter as preferred.
/// `heavy_share` is the byte share above which a data center counts as a
/// heavy hitter (default 20%).
[[nodiscard]] int preferred_dc(const capture::FlowReplay& dataset,
                               const ServerDcMap& map, double heavy_share = 0.20);

/// Convenience used throughout: per-dataset fraction of video-flow bytes
/// (or flows) served by data centers other than `preferred`.
struct NonPreferredShare {
    double byte_fraction = 0.0;
    double flow_fraction = 0.0;
};
[[nodiscard]] NonPreferredShare non_preferred_share(
    const capture::FlowReplay& dataset, const ServerDcMap& map, int preferred);

}  // namespace ytcdn::analysis
