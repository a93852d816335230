#include "analysis/redirect_analysis.hpp"

#include <algorithm>
#include <unordered_map>

#include "sim/time.hpp"

namespace ytcdn::analysis {

namespace {

std::unordered_map<cdn::VideoId, std::uint64_t> non_preferred_per_video(
    const capture::Dataset& dataset, std::span<const int> dc, int preferred) {
    std::unordered_map<cdn::VideoId, std::uint64_t> counts;
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        const auto& r = dataset.records[i];
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        if (dc[i] < 0 || dc[i] == preferred) continue;
        ++counts[r.video];
    }
    return counts;
}

EmpiricalCdf counts_to_cdf(const std::unordered_map<cdn::VideoId, std::uint64_t>& counts) {
    EmpiricalCdf cdf;
    for (const auto& [video, count] : counts) cdf.add(static_cast<double>(count));
    cdf.finalize();
    return cdf;
}

std::vector<cdn::VideoId> rank_counts(
    const std::unordered_map<cdn::VideoId, std::uint64_t>& counts, std::size_t k) {
    std::vector<std::pair<std::uint64_t, cdn::VideoId>> ranked;
    ranked.reserve(counts.size());
    for (const auto& [video, count] : counts) ranked.emplace_back(count, video);
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    if (ranked.size() > k) ranked.resize(k);
    std::vector<cdn::VideoId> out;
    out.reserve(ranked.size());
    for (const auto& [count, video] : ranked) out.push_back(video);
    return out;
}

void bump_hour(std::vector<std::uint64_t>& v, sim::SimTime t) {
    const auto hour = static_cast<std::size_t>(sim::hour_index(t));
    if (hour >= v.size()) v.resize(hour + 1, 0);
    ++v[hour];
}

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
    return counts_to_cdf(non_preferred_per_video(dataset, dc, preferred));
}

std::vector<cdn::VideoId> top_redirected_videos(const capture::Dataset& dataset,
                                                std::span<const int> dc, int preferred,
                                                std::size_t k) {
    return rank_counts(non_preferred_per_video(dataset, dc, preferred), k);
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
        bump_hour(all, r.start);
        if (dc[i] != preferred) bump_hour(np, r.start);
    }
    np.resize(all.size(), 0);
    VideoLoadSeries out;
    out.all = to_series(all, dataset.name + " video-all");
    out.non_preferred = to_series(np, dataset.name + " video-non-preferred");
    return out;
}

ServerLoadSeries preferred_dc_server_load(const capture::Dataset& dataset,
                                          std::span<const int> dc, int preferred) {
    // requests[hour][server] -> count, for servers inside the preferred DC.
    std::vector<std::unordered_map<net::IpAddress, std::uint64_t>> hours;
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        if (dc[i] != preferred) continue;
        const auto& r = dataset.records[i];
        const auto hour = static_cast<std::size_t>(sim::hour_index(r.start));
        if (hour >= hours.size()) hours.resize(hour + 1);
        ++hours[hour][r.server_ip];
    }

    ServerLoadSeries out;
    out.avg.name = dataset.name + " per-server-avg";
    out.max.name = dataset.name + " per-server-max";
    for (std::size_t h = 0; h < hours.size(); ++h) {
        if (hours[h].empty()) continue;
        MinMeanMax m;
        for (const auto& [ip, count] : hours[h]) m.add(static_cast<double>(count));
        out.avg.points.emplace_back(static_cast<double>(h), m.mean());
        out.max.points.emplace_back(static_cast<double>(h), m.max);
    }
    return out;
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
            bump_hour(all_pref, t);
        } else if (dc[flows.front()] == preferred) {
            bump_hour(first_pref, t);
        } else {
            bump_hour(others, t);
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
