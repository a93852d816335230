#include "analysis/redirect_analysis.hpp"

#include <algorithm>
#include <unordered_map>

#include "analysis/streaming.hpp"
#include "sim/time.hpp"

namespace ytcdn::analysis {

namespace {

Series to_series(const std::vector<std::uint64_t>& hours, std::string name) {
    Series s;
    s.name = std::move(name);
    for (std::size_t h = 0; h < hours.size(); ++h) {
        s.points.emplace_back(static_cast<double>(h), static_cast<double>(hours[h]));
    }
    return s;
}

}  // namespace

EmpiricalCdf video_non_preferred_counts(const capture::Dataset& dataset,
                                        std::span<const int> dc, int preferred) {
    return fold_records(dataset, dc, IncrementalVideoRedirects(preferred)).counts_cdf();
}

std::vector<cdn::VideoId> top_redirected_videos(const capture::Dataset& dataset,
                                                std::span<const int> dc, int preferred,
                                                std::size_t k) {
    return fold_records(dataset, dc, IncrementalVideoRedirects(preferred)).top_videos(k);
}

VideoLoadSeries video_hourly_load(const capture::Dataset& dataset,
                                  std::span<const int> dc, int preferred,
                                  cdn::VideoId video) {
    std::vector<std::uint64_t> all;
    std::vector<std::uint64_t> np;
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        const auto& r = dataset.records[i];
        if (r.video != video) continue;
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        if (dc[i] < 0) continue;
        ++sim::hour_slot(all, r.start);
        if (dc[i] != preferred) ++sim::hour_slot(np, r.start);
    }
    np.resize(all.size(), 0);
    VideoLoadSeries out;
    out.all = to_series(all, dataset.name + " video-all");
    out.non_preferred = to_series(np, dataset.name + " video-non-preferred");
    return out;
}

ServerLoadSeries preferred_dc_server_load(const capture::Dataset& dataset,
                                          std::span<const int> dc, int preferred) {
    return fold_records(dataset, dc, IncrementalServerLoad(preferred, dataset.name))
        .series();
}

HotServerSessions hot_server_sessions(const capture::Dataset& dataset,
                                      const SessionTable& sessions,
                                      std::span<const int> dc, int preferred,
                                      cdn::VideoId video) {
    const auto& rec = dataset.records;
    // The "server handling the video": the preferred-DC server with the most
    // requests for it. A count tie goes to the lowest address, so the pick
    // does not depend on the hash table's iteration order.
    std::unordered_map<net::IpAddress, std::uint64_t> counts;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        if (rec[i].video != video || dc[i] != preferred) continue;
        ++counts[rec[i].server_ip];
    }
    HotServerSessions out;
    if (counts.empty()) return out;
    std::uint64_t most = 0;
    for (const auto& [ip, count] : counts) {
        if (count > most || (count == most && ip < out.server)) {
            out.server = ip;
            most = count;
        }
    }

    std::vector<std::uint64_t> all_pref, first_pref, others;
    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        const auto flows = sessions.flows_of(s);
        // Sessions that *arrive* at this server: their first flow hits it.
        if (rec[flows.front()].server_ip != out.server) continue;
        bool every_pref = true;
        for (const std::uint32_t row : flows) {
            if (dc[row] != preferred) {
                every_pref = false;
                break;
            }
        }
        const sim::SimTime t = sessions.start[s];
        if (every_pref) {
            ++sim::hour_slot(all_pref, t);
        } else if (dc[flows.front()] == preferred) {
            ++sim::hour_slot(first_pref, t);
        } else {
            ++sim::hour_slot(others, t);
        }
    }
    const std::size_t n = std::max({all_pref.size(), first_pref.size(), others.size()});
    all_pref.resize(n, 0);
    first_pref.resize(n, 0);
    others.resize(n, 0);
    out.all_preferred = to_series(all_pref, dataset.name + " all-preferred");
    out.first_preferred_then_other =
        to_series(first_pref, dataset.name + " first-preferred-then-other");
    out.others = to_series(others, dataset.name + " others");
    return out;
}

}  // namespace ytcdn::analysis
