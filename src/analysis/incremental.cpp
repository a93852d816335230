#include "analysis/incremental.hpp"

#include <algorithm>

#include "analysis/session.hpp"

namespace ytcdn::analysis {

void IncrementalSummary::add(const capture::FlowRecord& r) {
    ++flows;
    if (classify_flow_size(r.bytes) == FlowKind::Video) ++video_flows;
    bytes += r.bytes;
    servers.insert(r.server_ip.value());
    clients.insert(r.client_ip.value());
    server_slash24s.insert(r.server_ip.slash24().value());
}

void IncrementalSessions::close_into_histogram(std::uint32_t flows) {
    const std::size_t bucket =
        std::min<std::size_t>(flows, kMaxBucket);
    if (bucket > 0) ++closed_[bucket];
}

void IncrementalSessions::add(const capture::FlowRecord& r) {
    // Spelled as SessionTable::build's split test (`r.start - horizon >
    // gap_T_s`) so both round alike; monotone in last_end, so the sessions
    // it closes are a prefix of expiry_.
    watermark_ = std::max(watermark_, r.start);
    while (!expiry_.empty() && watermark_ - expiry_.begin()->first > gap_) {
        const auto it = open_.find(expiry_.begin()->second);
        close_into_histogram(it->second.flows);
        open_.erase(it);
        expiry_.erase(expiry_.begin());
    }
    const Key key{r.client_ip.value(), r.video.value()};
    auto [it, inserted] = open_.try_emplace(key);
    OpenSession& session = it->second;
    if (!inserted) expiry_.erase({session.last_end, key});
    ++session.flows;
    session.last_end = std::max(session.last_end, r.end);
    expiry_.emplace(session.last_end, key);
}

void IncrementalSessions::close_all() {
    for (const auto& [key, session] : open_) {
        close_into_histogram(session.flows);
    }
    open_.clear();
    expiry_.clear();
}

std::uint64_t IncrementalSessions::sessions_closed() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t k = 1; k <= kMaxBucket; ++k) total += closed_[k];
    return total;
}

std::uint64_t IncrementalSessions::multi_flow_sessions() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t k = 2; k <= kMaxBucket; ++k) total += closed_[k];
    return total;
}

void IncrementalSessions::restore_open(Key key, OpenSession session) {
    if (open_.try_emplace(key, session).second) {
        expiry_.emplace(session.last_end, key);
    }
}

void IncrementalSessions::restore_closed(std::size_t bucket,
                                         std::uint64_t count) {
    if (bucket >= 1 && bucket <= kMaxBucket) closed_[bucket] = count;
}

}  // namespace ytcdn::analysis
