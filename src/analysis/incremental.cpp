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

namespace {

/// splitmix64's finalizer over both key fields: linear probing needs the
/// low bits of nearby client addresses and video ids spread.
std::uint64_t hash_key(const IncrementalSessions::Key& key) noexcept {
    std::uint64_t h = key.second ^ (std::uint64_t{key.first} * 0x9E3779B97F4A7C15ull);
    h ^= h >> 30;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
    h *= 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

/// Heap order for the expiry index: the earliest last end on top.
constexpr auto kEndsLater = [](const auto& a, const auto& b) {
    return a.last_end > b.last_end;
};

}  // namespace

void IncrementalSessions::close_into_histogram(std::uint32_t flows) {
    const std::size_t bucket =
        std::min<std::size_t>(flows, kMaxBucket);
    if (bucket > 0) ++closed_[bucket];
}

std::size_t IncrementalSessions::find_slot(const Key& key) const noexcept {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash_key(key) & mask;
    while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
    return i;
}

IncrementalSessions::Slot& IncrementalSessions::slot_for_insert(const Key& key) {
    if (2 * (open_count_ + 1) > slots_.size()) {
        std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
        old.swap(slots_);
        for (const Slot& slot : old) {
            if (slot.used) slots_[find_slot(slot.key)] = slot;
        }
    }
    return slots_[find_slot(key)];
}

void IncrementalSessions::erase_slot(std::size_t hole) noexcept {
    // Backward-shift deletion: pull each later entry of the probe run into
    // the hole unless its home slot lies after the hole, so no tombstones.
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t next = (hole + 1) & mask; slots_[next].used;
         next = (next + 1) & mask) {
        const std::size_t home = hash_key(slots_[next].key) & mask;
        if (((next - home) & mask) >= ((next - hole) & mask)) {
            slots_[hole] = slots_[next];
            hole = next;
        }
    }
    slots_[hole].used = false;
    --open_count_;
}

void IncrementalSessions::push_expiry(double last_end, const Key& key) {
    expiry_.push_back(Expiry{last_end, key});
    std::push_heap(expiry_.begin(), expiry_.end(), kEndsLater);
}

void IncrementalSessions::add(const capture::FlowRecord& r) {
    // Spelled as SessionTable::build's split test (`r.start - horizon >
    // gap_T_s`) so both round alike; monotone in last_end, so the sessions
    // it closes are the heap's minima.
    watermark_ = std::max(watermark_, r.start);
    while (!expiry_.empty() && watermark_ - expiry_.front().last_end > gap_) {
        const Expiry top = expiry_.front();
        std::pop_heap(expiry_.begin(), expiry_.end(), kEndsLater);
        expiry_.pop_back();
        // Stale unless the key is still open and still ends there: an
        // extension pushed a later entry for it.
        const std::size_t i = find_slot(top.key);
        if (slots_[i].used && slots_[i].session.last_end == top.last_end) {
            close_into_histogram(slots_[i].session.flows);
            erase_slot(i);
        }
    }
    const Key key{r.client_ip.value(), r.video.value()};
    Slot& slot = slot_for_insert(key);
    const bool inserted = !slot.used;
    if (inserted) {
        slot = Slot{key, OpenSession{}, true};
        ++open_count_;
    }
    ++slot.session.flows;
    if (inserted || r.end > slot.session.last_end) {
        slot.session.last_end = std::max(slot.session.last_end, r.end);
        push_expiry(slot.session.last_end, key);
    }
}

void IncrementalSessions::close_all() {
    for (Slot& slot : slots_) {
        if (!slot.used) continue;
        close_into_histogram(slot.session.flows);
        slot.used = false;
    }
    open_count_ = 0;
    expiry_.clear();
}

std::vector<std::pair<IncrementalSessions::Key, IncrementalSessions::OpenSession>>
IncrementalSessions::open() const {
    std::vector<std::pair<Key, OpenSession>> out;
    out.reserve(open_count_);
    for (const Slot& slot : slots_) {
        if (slot.used) out.emplace_back(slot.key, slot.session);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
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
    Slot& slot = slot_for_insert(key);
    if (slot.used) return;
    slot = Slot{key, session, true};
    ++open_count_;
    push_expiry(session.last_end, key);
}

void IncrementalSessions::restore_closed(std::size_t bucket,
                                         std::uint64_t count) {
    if (bucket >= 1 && bucket <= kMaxBucket) closed_[bucket] = count;
}

}  // namespace ytcdn::analysis
