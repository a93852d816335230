#pragma once

#include <array>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// Bounded-memory, one-flow-at-a-time folds for ytcdnd's online ingestion
/// (DESIGN.md §15). Each struct consumes FlowRecords in arrival order and
/// can answer its aggregate at any moment; none of them retains the flows
/// themselves. State that lives in unordered containers is only ever
/// *counted* or encoded sorted, so rendered output and checkpoint payloads
/// stay byte-deterministic.

/// Table I inputs: flows, volume, distinct servers/clients. The only
/// definition of them: make_table1 and `ytcdn summary` fold it over each
/// dataset (analysis::fold_records), ytcdnd over its live stream. Memory is
/// bounded by the number of distinct addresses, not the number of flows.
struct IncrementalSummary {
    std::uint64_t flows = 0;
    std::uint64_t video_flows = 0;  // >= kControlFlowMaxBytes (Section VI)
    std::uint64_t bytes = 0;
    std::unordered_set<std::uint32_t> servers;
    std::unordered_set<std::uint32_t> clients;
    std::unordered_set<std::uint32_t> server_slash24s;

    void add(const capture::FlowRecord& r);

    [[nodiscard]] double volume_gb() const noexcept {
        return static_cast<double>(bytes) / 1e9;
    }
};

/// Streaming variant of SessionTable::build: the same (client IP, VideoID)
/// key and the same gap rule (a flow extends the session when it starts
/// within `gap_T_s` of the session's last end, Section VI-A), but producing
/// a flows-per-session histogram instead of materialized sessions.
///
/// Sessions close two ways: add() first closes every session whose last
/// end the newest flow start seen (the watermark) has passed by more than
/// the gap (no later flow of start-ordered input can extend those), or
/// close_all() at shutdown/render. So the open set is exactly the sessions
/// that can still be extended. Equals the batch SessionTable exactly when
/// each stream's flows arrive in start-time order — which the spool replay
/// guarantees.
///
/// Open sessions live in a flat open-addressing table keyed by (client,
/// video); a min-heap of (last_end, key) finds the ones the watermark has
/// passed. An extension pushes a fresh heap entry and leaves the old one
/// behind; a popped entry whose key is closed or has moved on is skipped.
/// Once both have grown to the stream's live set, add() does not allocate.
class IncrementalSessions {
public:
    explicit IncrementalSessions(double gap_T_s = 1.0) : gap_(gap_T_s) {}

    void add(const capture::FlowRecord& r);

    /// Closes every open session into the histogram (shutdown / render).
    void close_all();

    /// Histogram buckets 1..kMaxBucket flows per closed session; the last
    /// bucket also counts anything larger.
    static constexpr std::size_t kMaxBucket = 8;

    [[nodiscard]] double gap() const noexcept { return gap_; }
    [[nodiscard]] std::uint64_t sessions_closed() const noexcept;
    [[nodiscard]] std::uint64_t multi_flow_sessions() const noexcept;
    [[nodiscard]] const std::array<std::uint64_t, kMaxBucket + 1>& histogram()
        const noexcept {
        return closed_;
    }
    [[nodiscard]] std::size_t open_count() const noexcept { return open_count_; }

    struct OpenSession {
        double last_end = 0.0;
        std::uint32_t flows = 0;
    };
    using Key = std::pair<std::uint32_t, std::uint64_t>;  // client, video

    /// The open sessions sorted by key, so checkpoint encoding is
    /// independent of insertion order.
    [[nodiscard]] std::vector<std::pair<Key, OpenSession>> open() const;

    /// Checkpoint restore: reinstates one open session (a key already open
    /// keeps its own) / the watermark. Restored sessions the watermark has
    /// already passed close at the next add().
    void restore_open(Key key, OpenSession session);
    void restore_closed(std::size_t bucket, std::uint64_t count);
    void set_watermark(double watermark) noexcept { watermark_ = watermark; }
    [[nodiscard]] double watermark() const noexcept { return watermark_; }

private:
    struct Slot {
        Key key;
        OpenSession session;
        bool used = false;
    };
    struct Expiry {
        double last_end;
        Key key;
    };

    void close_into_histogram(std::uint32_t flows);
    /// The slot holding `key`, else the empty slot that ends its probe run.
    [[nodiscard]] std::size_t find_slot(const Key& key) const noexcept;
    /// Claims `key`'s slot, growing the table first when it is half full.
    Slot& slot_for_insert(const Key& key);
    void erase_slot(std::size_t hole) noexcept;
    void push_expiry(double last_end, const Key& key);

    double gap_;
    double watermark_ = 0.0;  // newest flow start seen
    std::vector<Slot> slots_;  // power-of-two size, linear probing
    std::size_t open_count_ = 0;
    std::vector<Expiry> expiry_;  // min-heap on last_end
    std::array<std::uint64_t, kMaxBucket + 1> closed_{};  // [0] unused
};

}  // namespace ytcdn::analysis
