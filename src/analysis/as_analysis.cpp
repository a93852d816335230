#include "analysis/as_analysis.hpp"

#include <algorithm>

namespace ytcdn::analysis {

void IncrementalAsBreakdown::add(const capture::FlowRecord& r) {
    const auto [it, fresh] = group_of_.try_emplace(r.server_ip, kOther);
    if (fresh) {
        const auto asn = whois_->asn_of(r.server_ip);
        if (asn == net::well_known_as::kGoogle) {
            it->second = kGoogle;
        } else if (asn == net::well_known_as::kYouTubeEu) {
            it->second = kYouTubeEu;
        } else if (asn == local_as_) {
            it->second = kSameAs;
        }
        ++servers_[it->second];
    }
    bytes_[it->second] += r.bytes;
}

AsBreakdownRow IncrementalAsBreakdown::row(std::string dataset) const {
    const double total_servers = static_cast<double>(
        servers_[kGoogle] + servers_[kYouTubeEu] + servers_[kSameAs] + servers_[kOther]);
    const double total_bytes = static_cast<double>(
        bytes_[kGoogle] + bytes_[kYouTubeEu] + bytes_[kSameAs] + bytes_[kOther]);

    AsBreakdownRow row;
    row.dataset = std::move(dataset);
    if (total_servers > 0.0) {
        row.google_servers = static_cast<double>(servers_[kGoogle]) / total_servers;
        row.youtube_eu_servers = static_cast<double>(servers_[kYouTubeEu]) / total_servers;
        row.same_as_servers = static_cast<double>(servers_[kSameAs]) / total_servers;
        row.other_servers = static_cast<double>(servers_[kOther]) / total_servers;
    }
    if (total_bytes > 0.0) {
        row.google_bytes = static_cast<double>(bytes_[kGoogle]) / total_bytes;
        row.youtube_eu_bytes = static_cast<double>(bytes_[kYouTubeEu]) / total_bytes;
        row.same_as_bytes = static_cast<double>(bytes_[kSameAs]) / total_bytes;
        row.other_bytes = static_cast<double>(bytes_[kOther]) / total_bytes;
    }
    return row;
}

std::vector<net::IpAddress> IncrementalAsBreakdown::scope_servers() const {
    std::vector<net::IpAddress> out;
    out.reserve(servers_[kGoogle] + servers_[kSameAs]);
    for (const auto& [ip, group] : group_of_) {
        if (group == kGoogle || group == kSameAs) out.push_back(ip);
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace ytcdn::analysis
