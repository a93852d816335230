#include "analysis/preferred_dc.hpp"

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

std::vector<DcTraffic> traffic_by_dc(const capture::FlowReplay& dataset,
                                     const ServerDcMap& map) {
    return fold_records(dataset, map, IncrementalDcTraffic{}).traffic();
}

int preferred_dc(const capture::FlowReplay& dataset, const ServerDcMap& map,
                 double heavy_share) {
    return fold_records(dataset, map, IncrementalDcTraffic{})
        .preferred(map, heavy_share);
}

NonPreferredShare non_preferred_share(const capture::FlowReplay& dataset,
                                      const ServerDcMap& map, int preferred) {
    return fold_records(dataset, map, IncrementalDcTraffic{}).share(preferred);
}

}  // namespace ytcdn::analysis
