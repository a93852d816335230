#pragma once

#include <span>
#include <vector>

#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "analysis/stats.hpp"
#include "capture/dataset.hpp"

namespace ytcdn::analysis {

/// Every analysis here takes the dataset with its dc_column (see
/// analysis/session.hpp): `dc[i]` is the data center of records[i]'s
/// server, -1 when unmapped (out of scope).

/// Fig. 13: for every video downloaded at least once from a non-preferred
/// data center, the number of such downloads. The CDF separates the
/// unpopular-content effect (mass at exactly 1) from the hot-spot tail.
[[nodiscard]] EmpiricalCdf video_non_preferred_counts(const capture::Dataset& dataset,
                                                      std::span<const int> dc,
                                                      int preferred);

/// The k videos with the most non-preferred video-flow downloads
/// (Fig. 14 picks the top 4), most-redirected first.
[[nodiscard]] std::vector<cdn::VideoId> top_redirected_videos(
    const capture::Dataset& dataset, std::span<const int> dc, int preferred,
    std::size_t k);

/// Fig. 14: hourly request series for one video — total accesses and
/// accesses served by non-preferred data centers.
struct VideoLoadSeries {
    Series all;
    Series non_preferred;
};
[[nodiscard]] VideoLoadSeries video_hourly_load(const capture::Dataset& dataset,
                                                std::span<const int> dc, int preferred,
                                                cdn::VideoId video);

/// Fig. 15: per-hour average and maximum number of video requests handled
/// by a single server of the preferred data center.
struct ServerLoadSeries {
    Series avg;
    Series max;
};
[[nodiscard]] ServerLoadSeries preferred_dc_server_load(const capture::Dataset& dataset,
                                                        std::span<const int> dc,
                                                        int preferred);

/// Fig. 16: the load, in sessions per hour, on the server of the preferred
/// data center that handles `video`, broken down by whether the session's
/// flows stayed at the preferred data center. `sessions` must be built from
/// `dataset`.
struct HotServerSessions {
    net::IpAddress server;              // the server handling the video
    Series all_preferred;               // every flow to the preferred DC
    Series first_preferred_then_other;  // DNS was right, redirection happened
    Series others;                      // remaining patterns
};
[[nodiscard]] HotServerSessions hot_server_sessions(const capture::Dataset& dataset,
                                                    const SessionTable& sessions,
                                                    std::span<const int> dc,
                                                    int preferred, cdn::VideoId video);

}  // namespace ytcdn::analysis
