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

void IncrementalSessions::evict_stale() {
    // Every later flow of start-ordered input starts at or after the
    // watermark, so none can extend a session whose last end is more than
    // the gap behind it: closing those early is exactly what the batch
    // closure would eventually do. (The newest *end* is no horizon: one
    // long flow would move it minutes past sessions still open.)
    const double horizon = watermark_ - gap_;
    for (auto it = open_.begin(); it != open_.end();) {
        if (it->second.last_end < horizon) {
            close_into_histogram(it->second.flows);
            it = open_.erase(it);
        } else {
            ++it;
        }
    }
}

void IncrementalSessions::add(const capture::FlowRecord& r) {
    watermark_ = std::max(watermark_, r.start);
    const Key key{r.client_ip.value(), r.video.value()};
    auto [it, inserted] = open_.try_emplace(key);
    OpenSession& session = it->second;
    if (!inserted) {
        if (r.start - session.last_end > gap_) {
            // The gap rule splits here: the open session is complete.
            close_into_histogram(session.flows);
            session.flows = 0;
        }
    }
    ++session.flows;
    session.last_end = std::max(session.last_end, r.end);
    if (open_.size() > max_open_) evict_stale();
}

void IncrementalSessions::close_all() {
    for (const auto& [key, session] : open_) {
        close_into_histogram(session.flows);
    }
    open_.clear();
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
    open_[key] = session;
}

void IncrementalSessions::restore_closed(std::size_t bucket,
                                         std::uint64_t count) {
    if (bucket >= 1 && bucket <= kMaxBucket) closed_[bucket] = count;
}

}  // namespace ytcdn::analysis
