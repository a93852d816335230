#include "analysis/as_analysis.hpp"

#include <algorithm>

namespace ytcdn::analysis {

void IncrementalAsBreakdown::add(const capture::FlowRecord& r) {
    const auto asn = whois_->asn_of(r.server_ip);
    Tally* t = &other_;
    if (asn == net::well_known_as::kGoogle) {
        t = &google_;
    } else if (asn == net::well_known_as::kYouTubeEu) {
        t = &youtube_eu_;
    } else if (asn == local_as_) {
        t = &same_as_;
    }
    t->servers.insert(r.server_ip);
    t->bytes += r.bytes;
}

AsBreakdownRow IncrementalAsBreakdown::row(std::string dataset) const {
    const double total_servers =
        static_cast<double>(google_.servers.size() + youtube_eu_.servers.size() +
                            same_as_.servers.size() + other_.servers.size());
    const double total_bytes = static_cast<double>(google_.bytes + youtube_eu_.bytes +
                                                   same_as_.bytes + other_.bytes);

    AsBreakdownRow row;
    row.dataset = std::move(dataset);
    if (total_servers > 0.0) {
        row.google_servers = static_cast<double>(google_.servers.size()) / total_servers;
        row.youtube_eu_servers =
            static_cast<double>(youtube_eu_.servers.size()) / total_servers;
        row.same_as_servers =
            static_cast<double>(same_as_.servers.size()) / total_servers;
        row.other_servers = static_cast<double>(other_.servers.size()) / total_servers;
    }
    if (total_bytes > 0.0) {
        row.google_bytes = static_cast<double>(google_.bytes) / total_bytes;
        row.youtube_eu_bytes = static_cast<double>(youtube_eu_.bytes) / total_bytes;
        row.same_as_bytes = static_cast<double>(same_as_.bytes) / total_bytes;
        row.other_bytes = static_cast<double>(other_.bytes) / total_bytes;
    }
    return row;
}

std::vector<net::IpAddress> IncrementalAsBreakdown::scope_servers() const {
    std::vector<net::IpAddress> out(google_.servers.begin(), google_.servers.end());
    out.insert(out.end(), same_as_.servers.begin(), same_as_.servers.end());
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace ytcdn::analysis
