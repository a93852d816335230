#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/dc_map.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// The control/video flow-size threshold the paper derives from the kink in
/// Fig. 4: "flows smaller than 1000 bytes ... correspond to control flows".
inline constexpr std::uint64_t kControlFlowMaxBytes = 1000;

enum class FlowKind { Control, Video };

[[nodiscard]] constexpr FlowKind classify_flow_size(std::uint64_t bytes) noexcept {
    return bytes < kControlFlowMaxBytes ? FlowKind::Control : FlowKind::Video;
}

/// Resolves every record's server to its data center once: element i is
/// map.dc_of(dataset.records[i].server_ip) (-1 when unmapped). The
/// flow-level analyses take this column instead of the map, so the hash
/// lookup is paid once per flow per run instead of once per flow per
/// artifact.
[[nodiscard]] std::vector<int> dc_column(const capture::Dataset& dataset,
                                         const ServerDcMap& map);

/// A dataset's video sessions: "all flows that i) have the same source IP
/// address and VideoID, and ii) are overlapped in time", where two flows
/// overlap if the gap between the end of one and the start of the next is
/// below T (Section VI-A).
///
/// Compressed-sparse-row layout: session s owns the flow rows
/// flow_rows[offsets[s] .. offsets[s+1]), in (start, end) order. A row is an
/// index into the dataset's records (and so into its dc_column), which the
/// table does not own: it stays valid while the dataset is not mutated.
/// Sessions are ordered by (start, client, video).
struct SessionTable {
    std::vector<std::uint32_t> offsets;    // num_sessions() + 1 entries
    std::vector<std::uint32_t> flow_rows;  // indices into dataset.records
    std::vector<net::IpAddress> client;    // per session
    std::vector<cdn::VideoId> video;       // per session
    std::vector<sim::SimTime> start;       // per session (first flow's start)

    [[nodiscard]] std::size_t num_sessions() const noexcept {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    [[nodiscard]] std::span<const std::uint32_t> flows_of(std::size_t s) const noexcept {
        return {flow_rows.data() + offsets[s], flow_rows.data() + offsets[s + 1]};
    }

    /// Groups the dataset's records into sessions with gap threshold
    /// `gap_T_s` (the paper settles on T = 1 s after the Fig. 5 sensitivity
    /// study). The dataset does not need to be pre-sorted.
    [[nodiscard]] static SessionTable build(const capture::Dataset& dataset,
                                            double gap_T_s = 1.0);
};

/// Composition of a dataset by streamed resolution — Tstat records the
/// actual itag served, so this is directly available from the flow logs.
struct ResolutionShare {
    cdn::Resolution resolution = cdn::Resolution::R360;
    double flow_share = 0.0;  // of video flows
    double byte_share = 0.0;  // of video-flow bytes
};

/// Shares over video flows only (control flows carry no stream), ordered by
/// ascending resolution. Entries with zero flows are included.
[[nodiscard]] std::vector<ResolutionShare> resolution_breakdown(
    const capture::Dataset& dataset);

}  // namespace ytcdn::analysis
