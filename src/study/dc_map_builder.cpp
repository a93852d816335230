#include "study/dc_map_builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "net/pinger.hpp"

namespace ytcdn::study {

namespace {

struct SubnetDc {
    net::IpAddress key;  // the /24
    cdn::DcId dc;
};

/// The data center standing for each in-scope /24, in first-seen order: the
/// owner of the /24's first in-scope IP that has one.
std::vector<SubnetDc> subnet_dcs(const StudyDeployment& deployment,
                                 const std::vector<net::IpAddress>& scope_ips) {
    std::vector<SubnetDc> out;
    std::unordered_set<net::IpAddress> seen;
    for (const net::IpAddress ip : scope_ips) {
        const net::IpAddress key = ip.slash24();
        if (seen.contains(key)) continue;
        const cdn::DcId dc = deployment.cdn().dc_of_ip(ip);
        if (dc == cdn::kInvalidDc) continue;
        seen.insert(key);
        out.push_back({key, dc});
    }
    return out;
}

}  // namespace

analysis::ServerDcMap ground_truth_dc_map(const StudyDeployment& deployment,
                                          const workload::VantagePoint& vp) {
    analysis::ServerDcMap map;
    net::Pinger pinger(deployment.rtt(),
                       deployment.config().seed ^ sim::hash_string(vp.name));

    for (const auto& dc : deployment.cdn().data_centers()) {
        if (!cdn::in_analysis_scope(dc.infra) || dc.servers.empty()) continue;
        analysis::DataCenterInfo info;
        info.name = dc.city;
        info.location = dc.location;
        info.continent = dc.continent;
        info.rtt_ms = pinger.min_rtt_ms(vp.probe_site, dc.site, 10);
        info.distance_km = geo::distance_km(vp.pop_site.location, dc.location);
        const int idx = map.add_data_center(std::move(info));
        for (const cdn::ServerId sid : dc.servers) {
            map.assign(deployment.cdn().server(sid).ip(), idx);
        }
    }
    return map;
}

DcLocations locate_scope_dcs(
    const StudyDeployment& deployment,
    const std::vector<std::vector<net::IpAddress>>& scope_servers,
    const geoloc::CbgLocator& locator, util::ThreadPool& pool) {
    std::vector<cdn::DcId> dcs;
    for (const auto& scope : scope_servers) {
        for (const auto& subnet : subnet_dcs(deployment, scope)) dcs.push_back(subnet.dc);
    }
    std::sort(dcs.begin(), dcs.end());
    dcs.erase(std::unique(dcs.begin(), dcs.end()), dcs.end());

    // Independent runs: locate() forks its probe RNG from the target id.
    const auto results =
        util::parallel_map(pool, dcs, [&deployment, &locator](cdn::DcId dc) {
            return locator.locate(deployment.cdn().dc(dc).site);
        });
    DcLocations out;
    for (std::size_t i = 0; i < dcs.size(); ++i) out.emplace(dcs[i], results[i]);
    return out;
}

CbgMappingResult cbg_dc_map(const StudyDeployment& deployment,
                            const std::vector<net::IpAddress>& scope_ips,
                            const DcLocations& located,
                            const workload::VantagePoint& vp) {
    CbgMappingResult out;

    // Each /24's estimate and its city. Every /24 of a data center shares
    // one CbgResult, so each result is snapped to a city once.
    struct Estimate {
        const geoloc::CbgResult* cbg;
        const geo::City* city;
    };
    const auto& cities = geo::CityDatabase::builtin();
    std::unordered_map<cdn::DcId, const geo::City*> city_of_dc;
    std::unordered_map<net::IpAddress, Estimate> per_subnet;
    for (const auto& subnet : subnet_dcs(deployment, scope_ips)) {
        const auto it = located.find(subnet.dc);
        if (it == located.end()) {
            throw std::invalid_argument("cbg_dc_map: data center " +
                                        std::to_string(subnet.dc) + " was not located");
        }
        const auto [snap, fresh] = city_of_dc.try_emplace(subnet.dc, nullptr);
        if (fresh) snap->second = geoloc::snap_to_city(it->second, cities);
        per_subnet.emplace(subnet.key, Estimate{&it->second, snap->second});
    }

    out.located.reserve(scope_ips.size());
    for (const net::IpAddress ip : scope_ips) {
        const auto it = per_subnet.find(ip.slash24());
        if (it == per_subnet.end()) continue;
        out.located.push_back({ip, *it->second.cbg, it->second.city});
    }

    out.clusters = geoloc::cluster_servers(out.located);

    net::Pinger pinger(deployment.rtt(),
                       deployment.config().seed ^ sim::hash_string(vp.name) ^ 0xCB6ull);
    for (const auto& cluster : out.clusters) {
        analysis::DataCenterInfo info;
        info.name = cluster.city_name;
        info.location = cluster.location;
        info.continent = cluster.continent;
        info.distance_km = geo::distance_km(vp.pop_site.location, cluster.location);
        // Probe RTT: minimum over the cluster's member subnets' true sites
        // (the probe pings the addresses; the network answers from wherever
        // they really are).
        double best = 1e18;
        std::unordered_set<net::IpAddress> seen_subnets;
        for (const net::IpAddress ip : cluster.servers) {
            if (!seen_subnets.insert(ip.slash24()).second) continue;
            const cdn::DcId dc = deployment.cdn().dc_of_ip(ip);
            if (dc == cdn::kInvalidDc) continue;
            best = std::min(best,
                            pinger.min_rtt_ms(vp.probe_site,
                                              deployment.cdn().dc(dc).site, 10));
        }
        info.rtt_ms = best;
        const int idx = out.map.add_data_center(std::move(info));
        for (const net::IpAddress ip : cluster.servers) out.map.assign(ip, idx);
    }
    return out;
}

}  // namespace ytcdn::study
