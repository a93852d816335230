#include "analysis/geo_analysis.hpp"

#include <algorithm>

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

Series cumulative_bytes_by(const std::vector<DcTraffic>& traffic, const ServerDcMap& map,
                           double (*key)(const DataCenterInfo&),
                           const std::string& name, const char* label) {
    std::uint64_t total = 0;
    std::vector<std::pair<double, std::uint64_t>> ordered;
    ordered.reserve(traffic.size());
    for (const auto& t : traffic) {
        ordered.emplace_back(key(map.info(t.dc)), t.bytes);
        total += t.bytes;
    }
    std::sort(ordered.begin(), ordered.end());

    Series s;
    s.name = name + " " + label;
    s.points.emplace_back(0.0, 0.0);
    double acc = 0.0;
    for (const auto& [x, bytes] : ordered) {
        acc += static_cast<double>(bytes);
        s.points.emplace_back(x, total == 0 ? 0.0 : acc / static_cast<double>(total));
    }
    return s;
}

double rtt_of(const DataCenterInfo& i) { return i.rtt_ms; }
double distance_of(const DataCenterInfo& i) { return i.distance_km; }

}  // namespace

Series bytes_vs_rtt(const std::vector<DcTraffic>& traffic, const ServerDcMap& map,
                    const std::string& name) {
    return cumulative_bytes_by(traffic, map, rtt_of, name, "bytes-vs-rtt");
}

Series bytes_vs_distance(const std::vector<DcTraffic>& traffic, const ServerDcMap& map,
                         const std::string& name) {
    return cumulative_bytes_by(traffic, map, distance_of, name, "bytes-vs-distance");
}

}  // namespace ytcdn::analysis
