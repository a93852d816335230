#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// The control/video flow-size threshold the paper derives from the kink in
/// Fig. 4: "flows smaller than 1000 bytes ... correspond to control flows".
inline constexpr std::uint64_t kControlFlowMaxBytes = 1000;

enum class FlowKind { Control, Video };

[[nodiscard]] constexpr FlowKind classify_flow_size(std::uint64_t bytes) noexcept {
    return bytes < kControlFlowMaxBytes ? FlowKind::Control : FlowKind::Video;
}

/// The one definition of a video session (Section VI-A): "all flows that i)
/// have the same source IP address and VideoID, and ii) are overlapped in
/// time", where a flow joins its key's session when it starts within T
/// (`gap_T_s`) of the latest end seen on that session so far (flows nest: a
/// long video flow can outlive a short control flow started after it).
///
/// Flows must arrive in start-time order. Each add() first hands to
/// `close(key, session)` every session whose last end the newest start (the
/// watermark) has passed by more than T, which no later flow can extend;
/// close_all() closes the rest. Open sessions live in a flat open-addressing
/// table keyed by (client, video), and a min-heap of (last_end, key) finds
/// the ones the watermark has passed: an extension pushes a fresh entry, and
/// a popped entry whose key is closed or has moved on is skipped (DESIGN.md
/// §15.2). `Payload` is the caller's per-session state beyond (last_end,
/// flows): none for ytcdnd's histogram, Figs 10/16's classes for the
/// report's SessionFold.
template <class Payload>
class SessionGrouper {
public:
    using Key = std::pair<std::uint32_t, std::uint64_t>;  // client, video
    struct Open {
        double last_end = 0.0;
        std::uint32_t flows = 0;
        [[no_unique_address]] Payload payload{};
    };

    explicit SessionGrouper(double gap_T_s) : gap_(gap_T_s) {}

    /// Closes what the flow's start has passed, then adds the flow to its
    /// key's session and returns that session: `flows` already counts the
    /// flow, so `flows == 1` marks a session the flow opened. The reference
    /// is valid until the next add().
    template <class Close>
    Open& add(const capture::FlowRecord& r, Close&& close) {
        // Spelled as the split test `r.start - horizon > T`; monotone in
        // last_end, so the sessions it closes are the heap's minima.
        watermark_ = std::max(watermark_, r.start);
        while (!expiry_.empty() && watermark_ - expiry_.front().last_end > gap_) {
            const Expiry top = expiry_.front();
            std::pop_heap(expiry_.begin(), expiry_.end(), ends_later);
            expiry_.pop_back();
            // Stale unless the key is still open and still ends there: an
            // extension pushed a later entry for it.
            const std::size_t i = find_slot(top.key);
            if (slots_[i].used && slots_[i].session.last_end == top.last_end) {
                close(slots_[i].key, slots_[i].session);
                erase_slot(i);
            }
        }
        const Key key{r.client_ip.value(), r.video.value()};
        Slot& slot = slot_for_insert(key);
        const bool inserted = !slot.used;
        if (inserted) {
            slot = Slot{key, Open{}, true};
            ++open_count_;
        }
        ++slot.session.flows;
        if (inserted || r.end > slot.session.last_end) {
            slot.session.last_end = std::max(slot.session.last_end, r.end);
            push_expiry(slot.session.last_end, key);
        }
        return slot.session;
    }

    /// Closes every open session (shutdown / render), in table order.
    template <class Close>
    void close_all(Close&& close) {
        for (Slot& slot : slots_) {
            if (!slot.used) continue;
            close(slot.key, slot.session);
            slot.used = false;
        }
        open_count_ = 0;
        expiry_.clear();
    }

    [[nodiscard]] double gap() const noexcept { return gap_; }
    [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }

    /// The open sessions sorted by key, so checkpoint encoding is
    /// independent of insertion order.
    [[nodiscard]] std::vector<std::pair<Key, Open>> open() const {
        std::vector<std::pair<Key, Open>> out;
        out.reserve(open_count_);
        for (const Slot& slot : slots_) {
            if (slot.used) out.emplace_back(slot.key, slot.session);
        }
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
    }

    /// Checkpoint restore: reinstates one open session (a key already open
    /// keeps its own) / the watermark. Restored sessions the watermark has
    /// already passed close at the next add().
    void restore(Key key, Open session) {
        Slot& slot = slot_for_insert(key);
        if (slot.used) return;
        slot = Slot{key, session, true};
        ++open_count_;
        push_expiry(session.last_end, key);
    }
    void set_watermark(double watermark) noexcept { watermark_ = watermark; }
    [[nodiscard]] double watermark() const noexcept { return watermark_; }

private:
    struct Slot {
        Key key;
        Open session;
        bool used = false;
    };
    struct Expiry {
        double last_end;
        Key key;
    };

    /// Heap order for the expiry index: the earliest last end on top.
    static bool ends_later(const Expiry& a, const Expiry& b) noexcept {
        return a.last_end > b.last_end;
    }

    /// splitmix64's finalizer over both key fields: linear probing needs the
    /// low bits of nearby client addresses and video ids spread.
    static std::uint64_t hash_key(const Key& key) noexcept {
        std::uint64_t h =
            key.second ^ (std::uint64_t{key.first} * 0x9E3779B97F4A7C15ull);
        h ^= h >> 30;
        h *= 0xBF58476D1CE4E5B9ull;
        h ^= h >> 27;
        h *= 0x94D049BB133111EBull;
        return h ^ (h >> 31);
    }

    /// The slot holding `key`, else the empty slot that ends its probe run.
    [[nodiscard]] std::size_t find_slot(const Key& key) const noexcept {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = hash_key(key) & mask;
        while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask;
        return i;
    }

    /// Claims `key`'s slot, growing the table first when it is half full.
    Slot& slot_for_insert(const Key& key) {
        if (2 * (open_count_ + 1) > slots_.size()) {
            std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
            old.swap(slots_);
            for (const Slot& slot : old) {
                if (slot.used) slots_[find_slot(slot.key)] = slot;
            }
        }
        return slots_[find_slot(key)];
    }

    void erase_slot(std::size_t hole) noexcept {
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

    void push_expiry(double last_end, const Key& key) {
        expiry_.push_back(Expiry{last_end, key});
        std::push_heap(expiry_.begin(), expiry_.end(), ends_later);
    }

    double gap_;
    double watermark_ = 0.0;       // newest flow start seen
    std::vector<Slot> slots_;      // power-of-two size, linear probing
    std::size_t open_count_ = 0;
    std::vector<Expiry> expiry_;   // min-heap on last_end
};

/// The payload of a grouping that keeps only (last_end, flows) per session.
struct NoPayload {};

}  // namespace ytcdn::analysis
