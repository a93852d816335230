#include "analysis/incremental.hpp"

#include <algorithm>

namespace ytcdn::analysis {

void IncrementalSummary::add(const capture::FlowRecord& r) {
    ++flows;
    if (classify_flow_size(r.bytes) == FlowKind::Video) ++video_flows;
    bytes += r.bytes;
    servers.insert(r.server_ip.value());
    clients.insert(r.client_ip.value());
    server_slash24s.insert(r.server_ip.slash24().value());
}

void IncrementalResolutions::add(const capture::FlowRecord& r) {
    if (classify_flow_size(r.bytes) != FlowKind::Video) return;
    const auto i = static_cast<std::size_t>(r.resolution);
    ++flows_[i];
    bytes_[i] += r.bytes;
}

std::vector<ResolutionShare> IncrementalResolutions::shares() const {
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < flows_.size(); ++i) {
        flows += flows_[i];
        bytes += bytes_[i];
    }
    std::vector<ResolutionShare> out;
    out.reserve(flows_.size());
    for (const auto r : cdn::kAllResolutions) {
        const auto i = static_cast<std::size_t>(r);
        ResolutionShare share{r, 0.0, 0.0};
        if (flows > 0) {
            share.flow_share =
                static_cast<double>(flows_[i]) / static_cast<double>(flows);
        }
        if (bytes > 0) {
            share.byte_share =
                static_cast<double>(bytes_[i]) / static_cast<double>(bytes);
        }
        out.push_back(share);
    }
    return out;
}

void IncrementalSessions::count_into(
    std::array<std::uint64_t, kMaxBucket + 1>& histogram,
    std::uint32_t flows) noexcept {
    const std::size_t bucket = std::min<std::size_t>(flows, kMaxBucket);
    if (bucket > 0) ++histogram[bucket];
}

void IncrementalSessions::add(const capture::FlowRecord& r) {
    SessionGrouper::add(
        r, [this](const Key&, const Open& s) { count_into(closed_, s.flows); });
}

void IncrementalSessions::close_all() {
    SessionGrouper::close_all(
        [this](const Key&, const Open& s) { count_into(closed_, s.flows); });
}

std::array<std::uint64_t, IncrementalSessions::kMaxBucket + 1>
IncrementalSessions::histogram() const noexcept {
    auto out = closed_;
    for_each_expired([&out](const Key&, const Open& s) { count_into(out, s.flows); });
    return out;
}

std::uint64_t IncrementalSessions::sessions_closed() const noexcept {
    const auto h = histogram();
    std::uint64_t total = 0;
    for (std::size_t k = 1; k <= kMaxBucket; ++k) total += h[k];
    return total;
}

std::uint64_t IncrementalSessions::multi_flow_sessions() const noexcept {
    const auto h = histogram();
    std::uint64_t total = 0;
    for (std::size_t k = 2; k <= kMaxBucket; ++k) total += h[k];
    return total;
}

void IncrementalSessions::restore_closed(std::size_t bucket,
                                         std::uint64_t count) {
    if (bucket >= 1 && bucket <= kMaxBucket) closed_[bucket] = count;
}

}  // namespace ytcdn::analysis
