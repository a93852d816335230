#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/as_analysis.hpp"
#include "analysis/dc_map.hpp"
#include "analysis/incremental.hpp"
#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "analysis/stats.hpp"
#include "analysis/streaming.hpp"
#include "capture/flow_replay.hpp"

namespace ytcdn::analysis {

/// Fig. 10: breakdown of sessions by how many flows they have and whether
/// each flow went to the preferred data center. All values are fractions of
/// the *total* number of (scoped) sessions, matching the paper's bars.
struct SessionPatternShares {
    double single_flow = 0.0;            // sessions with exactly one flow
    double single_preferred = 0.0;       //   ... to the preferred DC
    double single_non_preferred = 0.0;   //   ... to a non-preferred DC
    double two_flow = 0.0;               // sessions with exactly two flows
    double two_pref_pref = 0.0;          //   (preferred, preferred)
    double two_pref_nonpref = 0.0;       //   (preferred, non-preferred)
    double two_nonpref_pref = 0.0;       //   (non-preferred, preferred)
    double two_nonpref_nonpref = 0.0;    //   (non-preferred, non-preferred)
    double more_flows = 0.0;             // sessions with three or more flows
    std::size_t total_sessions = 0;      // denominator (scoped sessions)
};

/// Section VI-C's closing observation: sessions with more than 2 flows
/// (5.18-10% of sessions) "show similar trends to 2-flow sessions" — for
/// the EU1 datasets a significant fraction starts at the preferred data
/// center and is redirected away. Fractions are of the >2-flow sessions.
struct MultiFlowPatternShares {
    std::size_t sessions = 0;                  // scoped sessions with >= 3 flows
    double share_of_all_sessions = 0.0;        // paper: 5.18-10%
    double all_preferred = 0.0;                // every flow at the preferred DC
    double first_preferred_then_other = 0.0;   // starts preferred, leaves
    double first_non_preferred = 0.0;          // DNS already sent it away
};

/// Fig. 16: the load, in sessions per hour of their start, on one server of
/// the preferred data center, broken down by whether the session's flows
/// stayed at the preferred data center.
struct HotServerSessions {
    net::IpAddress server;              // the server handling the video
    Series all_preferred;               // every flow to the preferred DC
    Series first_preferred_then_other;  // DNS was right, redirection happened
    Series others;                      // remaining patterns
};

/// Figs 5 and 6's flows-per-session counts: [k] holds the sessions with k+1
/// flows, the last bucket also those with more.
using FlowsPerSession = std::array<std::uint64_t, 10>;

/// Figs 5 and 6: element i is P(num_flows <= i+1); the final element covers
/// more flows and is 1.
[[nodiscard]] std::vector<double> flows_cdf(const FlowsPerSession& counts);

/// The sessions of `records` (start-ordered) at gap T, counted by flows:
/// SessionGrouper with no payload, for Fig. 5's other gaps.
[[nodiscard]] FlowsPerSession count_sessions(const capture::FlowReplay& records,
                                             double gap_T_s);

/// Figs 6, 10 and 16 (and Fig. 5 at T = 1 s) from one SessionGrouper pass,
/// with a per-session payload holding what those figures classify a session
/// by. Feed flows in start-time order with their data center (-1 when
/// unmapped), then finish().
class SessionFold {
public:
    explicit SessionFold(int preferred, double gap_T_s = 1.0)
        : preferred_(preferred), grouper_(gap_T_s) {}

    void add(const capture::FlowRecord& r, int dc);
    /// Closes the sessions still open; call after the last add().
    void finish();

    [[nodiscard]] std::uint64_t num_sessions() const noexcept;
    [[nodiscard]] std::vector<double> flows_cdf() const {
        return analysis::flows_cdf(flows_);
    }
    /// Fig. 10's shares. Sessions with any flow to a server outside the
    /// mapped analysis scope (legacy ASes, dc < 0) are excluded, following
    /// the paper's Section IV filter.
    [[nodiscard]] SessionPatternShares patterns() const;
    /// Section VI-C's >2-flow breakdown, over the same scoped sessions.
    [[nodiscard]] MultiFlowPatternShares multi_flow() const;
    /// Fig. 16: the sessions that *arrive* at `server` (their first flow
    /// hits it), which must belong to the preferred data center; series are
    /// named after `name`.
    [[nodiscard]] HotServerSessions hot_server(net::IpAddress server,
                                               const std::string& name) const;

private:
    struct Facts {
        double start = 0.0;  // the first flow's
        net::IpAddress first_server;
        bool first_preferred = false;
        bool second_preferred = false;
        bool all_preferred = false;
        bool any_unmapped = false;
    };
    using Grouper = SessionGrouper<Facts>;

    void close(const Grouper::Open& session);

    int preferred_;
    Grouper grouper_;
    FlowsPerSession flows_{};
    // Scoped sessions (no unmapped flow), by Fig. 10's pattern.
    std::uint64_t scoped_ = 0;
    std::uint64_t single_p_ = 0, single_np_ = 0;
    std::uint64_t pp_ = 0, pn_ = 0, np_ = 0, nn_ = 0;
    std::uint64_t more_all_p_ = 0, more_first_p_ = 0, more_first_np_ = 0;
    // One entry per session whose first flow hit the preferred DC, packed as
    // server << 32 | start hour << 1 | all flows preferred: 8 bytes a
    // session, where per-server hourly arrays cost kilobytes a server.
    std::vector<std::uint64_t> arrivals_;
};

/// Fig. 14: hourly request series for one video — total accesses and
/// accesses served by non-preferred data centers.
struct VideoLoadSeries {
    Series all;
    Series non_preferred;
};

/// Figs 14 and 16's second pass over a vantage point's flows, once the
/// first pass has ranked its most-redirected videos: each chosen video's
/// hourly load, and the preferred-DC server that handles the first.
class IncrementalVideoLoad {
public:
    IncrementalVideoLoad() = default;
    IncrementalVideoLoad(int preferred, std::vector<cdn::VideoId> videos);

    /// Resolves the data center only for the chosen videos' flows.
    void add(const capture::FlowRecord& r, const ServerDcMap& map);

    [[nodiscard]] const std::vector<cdn::VideoId>& videos() const noexcept {
        return videos_;
    }
    /// Video v's mapped video flows per hour, named "video<v+1> all" and
    /// "video<v+1> non-preferred"; both series have the same length.
    [[nodiscard]] VideoLoadSeries load(std::size_t v) const;
    /// The preferred-DC server with the most requests (any size) for the
    /// first video; a count tie goes to the lowest address, so the pick does
    /// not depend on hash-table order. Empty when no such request exists.
    [[nodiscard]] std::optional<net::IpAddress> hot_server() const;

private:
    int preferred_ = -1;
    std::vector<cdn::VideoId> videos_;
    std::vector<std::vector<std::uint64_t>> all_;
    std::vector<std::vector<std::uint64_t>> np_;
    std::unordered_map<net::IpAddress, std::uint64_t> first_video_servers_;
};

/// What one vantage point's report pass knows before it starts.
struct VantageScope {
    std::string name;  // the dataset's; series and rows are named after it
    const ServerDcMap* map = nullptr;
    int preferred = -1;
    const net::AsRegistry* whois = nullptr;
    net::Asn local_as{};
    std::vector<NamedSubnet> subnets;  // Fig. 12
};

/// Every flow-derived artifact's fold for one vantage point (DESIGN.md
/// §14.3). add() resolves the flow's data center once and feeds every fold;
/// flows must arrive in start-time order (the sessions need it, and
/// IncrementalServerLoad's float mean follows the sequence). finish() ends
/// the pass and ranks the videos that add_second() then follows (Figs 14
/// and 16), the only artifacts that need a second pass.
struct ReportFolds {
    explicit ReportFolds(VantageScope vantage);

    void add(const capture::FlowRecord& r);
    void finish();
    void add_second(const capture::FlowRecord& r) { hot_videos.add(r, *scope.map); }

    VantageScope scope;
    IncrementalSummary summary;           // Table I
    IncrementalAsBreakdown as;            // Table II; Table III's scope
    IncrementalResolutions resolutions;   // resolutions.txt
    EmpiricalCdf flow_sizes;              // Fig. 4: every size (§14.3)
    SessionFold sessions;                 // Figs 6, 10, 16 (T = 1 s)
    IncrementalDcTraffic traffic;         // Figs 7 and 8
    IncrementalHourlyLoad hourly;         // Figs 9 and 11
    IncrementalSubnetBreakdown subnets;   // Fig. 12
    IncrementalVideoRedirects redirects;  // Fig. 13
    IncrementalServerLoad server_load;    // Fig. 15
    IncrementalVideoLoad hot_videos;      // Figs 14 and 16 (second pass)
};

/// Both passes over `records` (a Dataset, or a log held as pieces), in
/// order; the folds come back finished.
[[nodiscard]] ReportFolds fold_report(const capture::FlowReplay& records,
                                      VantageScope vantage);

}  // namespace ytcdn::analysis
