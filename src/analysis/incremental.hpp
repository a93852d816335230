#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "capture/flow_record.hpp"
#include "cdn/video.hpp"
#include "util/flat_u32_set.hpp"

namespace ytcdn::analysis {

/// Bounded-memory, one-flow-at-a-time folds that need no data-center map,
/// shared by ytcdnd's online ingestion (DESIGN.md §15) and the report's
/// ReportFolds. Each struct consumes FlowRecords in arrival order and
/// can answer its aggregate at any moment; none of them retains the flows
/// themselves. State that lives in unordered containers is only ever
/// *counted* or encoded sorted, so rendered output and checkpoint payloads
/// stay byte-deterministic.

/// Table I inputs: flows, volume, distinct servers/clients. The only
/// definition of them: the report (through ReportFolds) and `ytcdn summary`
/// fold it over each dataset, ytcdnd over its live stream. Memory is
/// bounded by the number of distinct addresses, not the number of flows.
/// The distinct sets are flat open-addressing tables (one u32 per slot),
/// not node-based hash sets: Table I's three inserts are most of its
/// per-record cost.
struct IncrementalSummary {
    std::uint64_t flows = 0;
    std::uint64_t video_flows = 0;  // >= kControlFlowMaxBytes (Section VI)
    std::uint64_t bytes = 0;
    util::FlatU32Set servers;
    util::FlatU32Set clients;
    util::FlatU32Set server_slash24s;

    void add(const capture::FlowRecord& r);

    [[nodiscard]] double volume_gb() const noexcept {
        return static_cast<double>(bytes) / 1e9;
    }
};

/// Video resolution composition (resolutions.txt) — Tstat records the
/// actual itag served, so this is directly available from the flow logs.
struct ResolutionShare {
    cdn::Resolution resolution = cdn::Resolution::R360;
    double flow_share = 0.0;  // of video flows
    double byte_share = 0.0;  // of video-flow bytes
};

/// Streams the per-resolution video-flow tallies. Order-independent.
class IncrementalResolutions {
public:
    void add(const capture::FlowRecord& r);

    /// Shares over video flows only (control flows carry no stream), ordered
    /// by ascending resolution. Entries with zero flows are included.
    [[nodiscard]] std::vector<ResolutionShare> shares() const;

private:
    std::array<std::uint64_t, std::size(cdn::kAllResolutions)> flows_{};
    std::array<std::uint64_t, std::size(cdn::kAllResolutions)> bytes_{};
};

/// ytcdnd's session fold: SessionGrouper (the one session definition, see
/// analysis/session.hpp) with no per-session payload, counting the sessions
/// it closes into a flows-per-session histogram instead of materializing
/// them. The histogram also counts the sessions that have expired but are
/// still held, so it and the grouper's open set (open(), restore(),
/// watermark()), which the service checkpoint encodes, split the sessions
/// as if each had closed the moment it expired.
class IncrementalSessions : public SessionGrouper<NoPayload> {
public:
    using OpenSession = Open;

    explicit IncrementalSessions(double gap_T_s = 1.0) : SessionGrouper(gap_T_s) {}

    void add(const capture::FlowRecord& r);

    /// Closes every open session into the histogram (shutdown / render).
    void close_all();

    /// Histogram buckets 1..kMaxBucket flows per closed session; the last
    /// bucket also counts anything larger.
    static constexpr std::size_t kMaxBucket = 8;

    [[nodiscard]] std::uint64_t sessions_closed() const noexcept;
    [[nodiscard]] std::uint64_t multi_flow_sessions() const noexcept;
    /// Closed and expired sessions by flows; [0] is unused.
    [[nodiscard]] std::array<std::uint64_t, kMaxBucket + 1> histogram() const noexcept;
    /// Checkpoint restore of one histogram bucket.
    void restore_closed(std::size_t bucket, std::uint64_t count);

private:
    static void count_into(std::array<std::uint64_t, kMaxBucket + 1>& histogram,
                           std::uint32_t flows) noexcept;

    std::array<std::uint64_t, kMaxBucket + 1> closed_{};  // [0] unused
};

}  // namespace ytcdn::analysis
