#include "session_oracle.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "sim/time.hpp"

namespace ytcdn::oracle {

using analysis::HotServerSessions;
using analysis::MultiFlowPatternShares;
using analysis::Series;
using analysis::ServerDcMap;
using analysis::SessionPatternShares;

std::vector<int> dc_column(const capture::Dataset& dataset, const ServerDcMap& map) {
    std::vector<int> dc;
    dc.reserve(dataset.records.size());
    for (const auto& r : dataset.records) dc.push_back(map.dc_of(r.server_ip));
    return dc;
}

SessionTable SessionTable::build(const capture::Dataset& dataset, double gap_T_s) {
    const auto& rec = dataset.records;
    const std::size_t n = rec.size();
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    // One global sort groups the records: rows of the same (client, video)
    // key become contiguous, ordered by (start, end) within the key. The
    // row-index tiebreak makes the permutation deterministic.
    std::sort(order.begin(), order.end(), [&rec](std::uint32_t a, std::uint32_t b) {
        const auto& x = rec[a];
        const auto& y = rec[b];
        if (x.client_ip != y.client_ip) return x.client_ip < y.client_ip;
        if (x.video != y.video) return x.video < y.video;
        if (x.start != y.start) return x.start < y.start;
        if (x.end != y.end) return x.end < y.end;
        return a < b;
    });

    // Sessions are contiguous slices [lo, hi) of `order`; collect the slice
    // bounds, then order sessions by (start, client, video).
    struct Slice {
        sim::SimTime start;
        net::IpAddress client;
        cdn::VideoId video;
        std::uint32_t lo, hi;
    };
    std::vector<Slice> slices;
    std::size_t i = 0;
    while (i < n) {
        const net::IpAddress client = rec[order[i]].client_ip;
        const cdn::VideoId video = rec[order[i]].video;
        std::size_t key_end = i + 1;
        while (key_end < n && rec[order[key_end]].client_ip == client &&
               rec[order[key_end]].video == video) {
            ++key_end;
        }
        // Split the key's run at gaps, tracking the furthest end seen so
        // far: flows can nest (a long video flow can outlive a short control
        // flow started after it).
        std::size_t lo = i;
        double horizon = rec[order[i]].end;
        for (std::size_t j = i + 1; j < key_end; ++j) {
            const auto& r = rec[order[j]];
            if (r.start - horizon > gap_T_s) {
                slices.push_back({rec[order[lo]].start, client, video,
                                  static_cast<std::uint32_t>(lo),
                                  static_cast<std::uint32_t>(j)});
                lo = j;
                horizon = r.end;
            } else {
                horizon = std::max(horizon, r.end);
            }
        }
        slices.push_back({rec[order[lo]].start, client, video,
                          static_cast<std::uint32_t>(lo),
                          static_cast<std::uint32_t>(key_end)});
        i = key_end;
    }

    std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.client != b.client) return a.client < b.client;
        return a.video < b.video;
    });

    SessionTable t;
    t.offsets.reserve(slices.size() + 1);
    t.flow_rows.reserve(n);
    t.client.reserve(slices.size());
    t.video.reserve(slices.size());
    t.start.reserve(slices.size());
    t.offsets.push_back(0);
    for (const auto& s : slices) {
        for (std::uint32_t j = s.lo; j < s.hi; ++j) t.flow_rows.push_back(order[j]);
        t.offsets.push_back(static_cast<std::uint32_t>(t.flow_rows.size()));
        t.client.push_back(s.client);
        t.video.push_back(s.video);
        t.start.push_back(s.start);
    }
    return t;
}

std::vector<double> flows_per_session_cdf(const SessionTable& sessions,
                                          int max_bucket) {
    if (max_bucket < 1) throw std::invalid_argument("flows_per_session_cdf: max_bucket");
    std::vector<double> counts(static_cast<std::size_t>(max_bucket) + 1, 0.0);
    const std::size_t total = sessions.num_sessions();
    for (std::size_t s = 0; s < total; ++s) {
        const std::size_t n = sessions.flows_of(s).size();
        const std::size_t bucket =
            std::min<std::size_t>(n, static_cast<std::size_t>(max_bucket) + 1) - 1;
        counts[bucket] += 1.0;
    }
    std::vector<double> cdf(counts.size());
    double acc = 0.0;
    const double denom = total == 0 ? 1.0 : static_cast<double>(total);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        acc += counts[i];
        cdf[i] = acc / denom;
    }
    return cdf;
}

namespace {

/// True when every flow of the session is mapped (analysis scope); the
/// pattern breakdowns skip out-of-scope sessions.
bool in_scope(const SessionTable& sessions, std::span<const int> dc, std::size_t s) {
    for (const std::uint32_t row : sessions.flows_of(s)) {
        if (dc[row] < 0) return false;
    }
    return true;
}

}  // namespace

SessionPatternShares session_patterns(const SessionTable& sessions,
                                      std::span<const int> dc, int preferred) {
    SessionPatternShares out;
    std::size_t scoped = 0;
    std::size_t single = 0, single_p = 0, single_np = 0;
    std::size_t two = 0, pp = 0, pn = 0, np = 0, nn = 0;
    std::size_t more = 0;

    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        if (!in_scope(sessions, dc, s)) continue;
        ++scoped;
        const auto flows = sessions.flows_of(s);
        if (flows.size() == 1) {
            ++single;
            if (dc[flows[0]] == preferred) {
                ++single_p;
            } else {
                ++single_np;
            }
        } else if (flows.size() == 2) {
            ++two;
            const bool a = dc[flows[0]] == preferred;
            const bool b = dc[flows[1]] == preferred;
            if (a && b) ++pp;
            else if (a && !b) ++pn;
            else if (!a && b) ++np;
            else ++nn;
        } else {
            ++more;
        }
    }

    out.total_sessions = scoped;
    if (scoped == 0) return out;
    const auto share = [t = static_cast<double>(scoped)](std::size_t c) {
        return static_cast<double>(c) / t;
    };
    out.single_flow = share(single);
    out.single_preferred = share(single_p);
    out.single_non_preferred = share(single_np);
    out.two_flow = share(two);
    out.two_pref_pref = share(pp);
    out.two_pref_nonpref = share(pn);
    out.two_nonpref_pref = share(np);
    out.two_nonpref_nonpref = share(nn);
    out.more_flows = share(more);
    return out;
}

MultiFlowPatternShares multi_flow_patterns(const SessionTable& sessions,
                                           std::span<const int> dc, int preferred) {
    MultiFlowPatternShares out;
    std::size_t scoped_total = 0;
    std::size_t all_pref = 0, first_pref = 0, first_np = 0;
    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        if (!in_scope(sessions, dc, s)) continue;
        ++scoped_total;
        const auto flows = sessions.flows_of(s);
        if (flows.size() < 3) continue;
        ++out.sessions;

        const bool starts_pref = dc[flows.front()] == preferred;
        bool every_pref = starts_pref;
        for (const std::uint32_t row : flows) {
            if (dc[row] != preferred) {
                every_pref = false;
                break;
            }
        }
        if (every_pref) {
            ++all_pref;
        } else if (starts_pref) {
            ++first_pref;
        } else {
            ++first_np;
        }
    }
    if (out.sessions == 0) return out;
    const double n = static_cast<double>(out.sessions);
    out.share_of_all_sessions =
        scoped_total == 0 ? 0.0 : n / static_cast<double>(scoped_total);
    out.all_preferred = static_cast<double>(all_pref) / n;
    out.first_preferred_then_other = static_cast<double>(first_pref) / n;
    out.first_non_preferred = static_cast<double>(first_np) / n;
    return out;
}

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

}  // namespace ytcdn::oracle
