#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "capture/flow_record.hpp"
#include "net/as_registry.hpp"

namespace ytcdn::analysis {

/// One row of the paper's Table II: the share of distinct servers and of
/// bytes per AS group for a dataset.
struct AsBreakdownRow {
    std::string dataset;
    double google_servers = 0.0, google_bytes = 0.0;      // AS 15169
    double youtube_eu_servers = 0.0, youtube_eu_bytes = 0.0;  // AS 43515
    double same_as_servers = 0.0, same_as_bytes = 0.0;    // the PoP's own AS
    double other_servers = 0.0, other_bytes = 0.0;        // everything else
};

/// Streams Table II's per-AS-group tallies for one dataset, whose network
/// is `local_as` (detects the EU2 in-ISP data center). Order-independent.
class IncrementalAsBreakdown {
public:
    IncrementalAsBreakdown(const net::AsRegistry& whois, net::Asn local_as)
        : whois_(&whois), local_as_(local_as) {}

    void add(const capture::FlowRecord& r);

    /// The Table II row, named `dataset`; shares are fractions in [0, 1].
    [[nodiscard]] AsBreakdownRow row(std::string dataset) const;

    /// The analysis scope (Section IV's filter), sorted: the distinct server
    /// IPs (not /24s — the paper counts addresses) in Google's AS or, when it
    /// owns servers, the network's own (the in-ISP data center). Table III
    /// geolocates exactly these.
    [[nodiscard]] std::vector<net::IpAddress> scope_servers() const;

private:
    /// Table II's four AS groups, in row order.
    enum Group : std::uint8_t { kGoogle, kYouTubeEu, kSameAs, kOther, kGroups };

    const net::AsRegistry* whois_;
    net::Asn local_as_;
    /// Each distinct server's group, resolved through the registry on its
    /// first flow: a server's AS is fixed, so later flows add only bytes.
    /// An index, not a pointer, so the fold copies and moves safely.
    std::unordered_map<net::IpAddress, Group> group_of_;
    std::array<std::uint64_t, kGroups> servers_{};
    std::array<std::uint64_t, kGroups> bytes_{};
};

}  // namespace ytcdn::analysis
