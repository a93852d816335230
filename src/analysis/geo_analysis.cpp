#include "analysis/geo_analysis.hpp"

#include <algorithm>

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

ContinentCounts servers_per_continent(
    const std::vector<geoloc::LocatedServer>& servers) {
    ContinentCounts c;
    for (const auto& s : servers) {
        if (s.city == nullptr) {
            ++c.unlocated;
            continue;
        }
        switch (geo::bucket_of(s.city->continent)) {
            case geo::ContinentBucket::NorthAmerica: ++c.north_america; break;
            case geo::ContinentBucket::Europe: ++c.europe; break;
            case geo::ContinentBucket::Others: ++c.others; break;
        }
    }
    return c;
}

namespace {

Series cumulative_bytes_by(const capture::Dataset& dataset, const ServerDcMap& map,
                           double (*key)(const DataCenterInfo&), const char* label) {
    const auto traffic = fold_records(dataset, map, IncrementalDcTraffic{}).traffic();
    std::uint64_t total = 0;
    std::vector<std::pair<double, std::uint64_t>> ordered;
    ordered.reserve(traffic.size());
    for (const auto& t : traffic) {
        ordered.emplace_back(key(map.info(t.dc)), t.bytes);
        total += t.bytes;
    }
    std::sort(ordered.begin(), ordered.end());

    Series s;
    s.name = dataset.name + std::string(" ") + label;
    s.points.emplace_back(0.0, 0.0);
    double acc = 0.0;
    for (const auto& [x, bytes] : ordered) {
        acc += static_cast<double>(bytes);
        s.points.emplace_back(x, total == 0 ? 0.0 : acc / static_cast<double>(total));
    }
    return s;
}

}  // namespace

Series bytes_vs_rtt(const capture::Dataset& dataset, const ServerDcMap& map) {
    return cumulative_bytes_by(
        dataset, map, [](const DataCenterInfo& i) { return i.rtt_ms; }, "bytes-vs-rtt");
}

Series bytes_vs_distance(const capture::Dataset& dataset, const ServerDcMap& map) {
    return cumulative_bytes_by(
        dataset, map, [](const DataCenterInfo& i) { return i.distance_km; },
        "bytes-vs-distance");
}

}  // namespace ytcdn::analysis
