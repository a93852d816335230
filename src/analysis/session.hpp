#pragma once

#include <algorithm>
#include <bit>
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
/// Flows must arrive in start-time order. A session expires once the newest
/// start (the watermark) passes its last end by more than T. It closes lazily
/// (DESIGN.md §15.2): `close(key, session)` gets it when its key recurs, or in
/// a sweep once the table holds max(64, 2 x the live sessions the last sweep
/// left). Observers see the eager split: open() holds only live sessions.
/// `Payload` is the caller's per-session state beyond (last_end, flows): none
/// for ytcdnd's histogram, Figs 10/16's classes for the report's SessionFold.
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

    /// Adds the flow to its key's session and returns that session: `flows`
    /// already counts the flow, so `flows == 1` marks a session the flow
    /// opened. The reference is valid until the next add().
    template <class Close>
    Open& add(const capture::FlowRecord& r, Close&& close) {
        watermark_ = std::max(watermark_, r.start);
        if (held_ >= sweep_at_) sweep(close);
        const Key key{r.client_ip.value(), r.video.value()};
        Slot& slot = slot_for_insert(key);
        if (!slot.used) {
            slot = Slot{key, Open{}, true};
            ++held_;
        } else if (expired(slot.session)) {
            close(slot.key, slot.session);
            slot.session = Open{};
        }
        ++slot.session.flows;
        slot.session.last_end = std::max(slot.session.last_end, r.end);
        return slot.session;
    }

    /// Closes every held session (shutdown / render), in table order.
    template <class Close>
    void close_all(Close&& close) {
        for (Slot& slot : slots_) {
            if (!slot.used) continue;
            close(slot.key, slot.session);
            slot.used = false;
        }
        held_ = 0;
    }

    [[nodiscard]] double gap() const noexcept { return gap_; }
    /// The live sessions, counted by a scan of the table.
    [[nodiscard]] std::size_t open_count() const noexcept {
        std::size_t n = 0;
        for (const Slot& slot : slots_) n += slot.used && !expired(slot.session);
        return n;
    }
    /// Occupancy: sessions held, live or expired but not yet closed.
    [[nodiscard]] std::size_t held_count() const noexcept { return held_; }

    /// The live sessions sorted by key, so checkpoint encoding is
    /// independent of insertion order and of when expired ones close.
    [[nodiscard]] std::vector<std::pair<Key, Open>> open() const {
        std::vector<std::pair<Key, Open>> out;
        for (const Slot& slot : slots_) {
            if (slot.used && !expired(slot.session)) {
                out.emplace_back(slot.key, slot.session);
            }
        }
        std::sort(out.begin(), out.end(),
                  [](const auto& a, const auto& b) { return a.first < b.first; });
        return out;
    }

    /// Calls `f(key, session)` for each held session that has expired: closed
    /// to every observer, though no close callback has seen it yet.
    template <class F>
    void for_each_expired(F&& f) const {
        for (const Slot& slot : slots_) {
            if (slot.used && expired(slot.session)) f(slot.key, slot.session);
        }
    }

    /// Checkpoint restore: reinstates one session (a key already held keeps
    /// its own) / the watermark. One the watermark has passed is expired.
    void restore(Key key, Open session) {
        Slot& slot = slot_for_insert(key);
        if (slot.used) return;
        slot = Slot{key, session, true};
        ++held_;
    }
    void set_watermark(double watermark) noexcept { watermark_ = watermark; }
    [[nodiscard]] double watermark() const noexcept { return watermark_; }

private:
    struct Slot { Key key; Open session; bool used = false; };
    static constexpr std::size_t kMinSweep = 64;

    /// Spelled as the split test `r.start - horizon > T`; stays true.
    [[nodiscard]] bool expired(const Open& s) const noexcept {
        return watermark_ - s.last_end > gap_;
    }

    /// Closes every expired session, rebuilding the table without them.
    template <class Close>
    void sweep(Close& close) {
        rebuild(0, [&close, this](const Slot& slot) {
            if (!expired(slot.session)) return true;
            close(slot.key, slot.session);
            return false;
        });
        sweep_at_ = std::max(kMinSweep, 2 * held_);
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
        if (2 * (held_ + 1) > slots_.size()) {
            rebuild(held_ + 1, [](const Slot&) { return true; });
        }
        return slots_[find_slot(key)];
    }

    /// Moves the held sessions that `keep` accepts into the spare table, sized
    /// so that the larger of `n` sessions and the sweep threshold fill half of
    /// it; the old table becomes the spare. Once both have grown to the peak,
    /// no rebuild allocates, and a table sized for a past peak shrinks.
    template <class Keep>
    void rebuild(std::size_t n, Keep&& keep) {
        spare_.swap(slots_);
        slots_.assign(std::bit_ceil(2 * std::max(n, sweep_at_)), Slot{});
        held_ = 0;
        for (const Slot& slot : spare_) {
            if (!slot.used || !keep(slot)) continue;
            slots_[find_slot(slot.key)] = slot;
            ++held_;
        }
    }

    double gap_;
    double watermark_ = 0.0;            // newest flow start seen
    std::vector<Slot> slots_;           // power-of-two size, linear probing
    std::vector<Slot> spare_;           // the table before the last rebuild
    std::size_t held_ = 0;              // used slots, live or expired
    std::size_t sweep_at_ = kMinSweep;  // held_ that triggers a sweep
};

/// The payload of a grouping that keeps only (last_end, flows) per session.
struct NoPayload {};

}  // namespace ytcdn::analysis
