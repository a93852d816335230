#pragma once

// The batch session grouping the library had before the report folded its
// sessions (analysis::SessionFold): a global sort into compressed-sparse-row
// sessions, and the Fig. 5/6/10/16 computations over them. Kept here, and
// only here, as the oracle the folds are checked against.

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/report_folds.hpp"
#include "capture/dataset.hpp"

namespace ytcdn::oracle {

/// map.dc_of(dataset.records[i].server_ip) for every record (-1 unmapped).
[[nodiscard]] std::vector<int> dc_column(const capture::Dataset& dataset,
                                         const analysis::ServerDcMap& map);

/// A dataset's video sessions (Section VI-A), grouped in one batch.
///
/// Compressed-sparse-row layout: session s owns the flow rows
/// flow_rows[offsets[s] .. offsets[s+1]), in (start, end) order. A row is an
/// index into the dataset's records (and so into its dc_column), which the
/// table does not own. Sessions are ordered by (start, client, video).
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
    /// `gap_T_s`. The dataset does not need to be pre-sorted.
    [[nodiscard]] static SessionTable build(const capture::Dataset& dataset,
                                            double gap_T_s = 1.0);
};

/// Figs 5/6: element i is P(num_flows <= i+1); the last covers ">max_bucket".
[[nodiscard]] std::vector<double> flows_per_session_cdf(const SessionTable& sessions,
                                                        int max_bucket = 9);

/// Fig. 10, over sessions with no unmapped (dc < 0) flow.
[[nodiscard]] analysis::SessionPatternShares session_patterns(
    const SessionTable& sessions, std::span<const int> dc, int preferred);
[[nodiscard]] analysis::MultiFlowPatternShares multi_flow_patterns(
    const SessionTable& sessions, std::span<const int> dc, int preferred);

/// Fig. 16: the sessions arriving at the preferred-DC server that handles
/// `video` most, by hour of their start; `sessions` must come from `dataset`.
[[nodiscard]] analysis::HotServerSessions hot_server_sessions(
    const capture::Dataset& dataset, const SessionTable& sessions,
    std::span<const int> dc, int preferred, cdn::VideoId video);

}  // namespace ytcdn::oracle
