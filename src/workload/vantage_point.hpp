#pragma once

#include <string>
#include <vector>

#include "cdn/dns.hpp"
#include "geo/city.hpp"
#include "net/rtt_model.hpp"
#include "net/subnet.hpp"
#include "sim/diurnal.hpp"
#include "sim/guided_cdf.hpp"
#include "workload/client.hpp"

namespace ytcdn::workload {

/// One internal subnet of a monitored network, with its share of the client
/// population and the local DNS resolver its hosts are configured with.
/// (Fig. 12's Net-3 effect comes from one subnet using a resolver that the
/// authoritative DNS maps to a different preferred data center.)
struct SubnetGroup {
    std::string name;        // e.g. "Net-3"
    net::Subnet prefix;
    double client_share = 1.0;  // relative weight of the population here
    cdn::LdnsId ldns = cdn::kInvalidLdns;
};

/// A monitored network edge: one of the paper's five capture locations.
struct VantagePoint {
    std::string name;  // "US-Campus", "EU1-ADSL", ...
    AccessTech tech = AccessTech::Campus;
    const geo::City* city = nullptr;
    /// Site representing the PoP's upstream attachment point. All client
    /// sites share this id so they see identical wide-area paths.
    net::NetSite pop_site;
    /// The Tstat probe PC, used for the active RTT measurements of
    /// Section V / Fig. 2 (it sits on the PoP LAN).
    net::NetSite probe_site;
    std::vector<SubnetGroup> subnets;
    std::vector<Client> clients;
    /// Cumulative per-client activity weights (heavy-tailed), built by
    /// populate_clients(); sample_client_index() draws from it through its
    /// guide table.
    sim::GuidedCdf client_activity_cdf;
    /// Mean video sessions per second across the whole week (scaled).
    double mean_sessions_per_s = 1.0;
    sim::DiurnalProfile profile = sim::DiurnalProfile::residential();
};

}  // namespace ytcdn::workload
