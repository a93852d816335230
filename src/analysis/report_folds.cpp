#include "analysis/report_folds.hpp"

#include <algorithm>
#include <span>
#include <utility>

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

// --- SessionFold -------------------------------------------------------------

std::vector<double> flows_cdf(const FlowsPerSession& counts) {
    std::uint64_t total = 0;
    for (const auto n : counts) total += n;
    const double denom = total == 0 ? 1.0 : static_cast<double>(total);
    std::vector<double> cdf(counts.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        acc += static_cast<double>(counts[i]);
        cdf[i] = acc / denom;
    }
    return cdf;
}

FlowsPerSession count_sessions(const capture::FlowReplay& records, double gap_T_s) {
    FlowsPerSession counts{};
    const auto count = [&counts](const auto&, const auto& session) {
        ++counts[std::min<std::size_t>(session.flows, counts.size()) - 1];
    };
    SessionGrouper<NoPayload> grouper(gap_T_s);
    records.for_each_block([&](std::span<const capture::FlowRecord> block) {
        for (const auto& r : block) grouper.add(r, count);
    });
    grouper.close_all(count);
    return counts;
}

void SessionFold::add(const capture::FlowRecord& r, int dc) {
    const bool preferred = dc == preferred_;
    auto& session = grouper_.add(
        r, [this](const Grouper::Key&, const Grouper::Open& s) { close(s); });
    Facts& facts = session.payload;
    if (session.flows == 1) {
        facts.start = r.start;
        facts.first_server = r.server_ip;
        facts.first_preferred = preferred;
        facts.all_preferred = preferred;
        facts.any_unmapped = dc < 0;
        return;
    }
    if (session.flows == 2) facts.second_preferred = preferred;
    facts.all_preferred = facts.all_preferred && preferred;
    facts.any_unmapped = facts.any_unmapped || dc < 0;
}

void SessionFold::finish() {
    grouper_.close_all([this](const Grouper::Key&, const Grouper::Open& s) { close(s); });
}

void SessionFold::close(const Grouper::Open& session) {
    const Facts& f = session.payload;
    ++flows_[std::min<std::size_t>(session.flows, flows_.size()) - 1];

    if (f.first_preferred) {
        arrivals_.push_back(std::uint64_t{f.first_server.value()} << 32 |
                            static_cast<std::uint64_t>(sim::hour_index(f.start)) << 1 |
                            (f.all_preferred ? 1u : 0u));
    }

    if (f.any_unmapped) return;
    ++scoped_;
    if (session.flows == 1) {
        ++(f.first_preferred ? single_p_ : single_np_);
    } else if (session.flows == 2) {
        if (f.first_preferred) {
            ++(f.second_preferred ? pp_ : pn_);
        } else {
            ++(f.second_preferred ? np_ : nn_);
        }
    } else if (f.all_preferred) {
        ++more_all_p_;
    } else {
        ++(f.first_preferred ? more_first_p_ : more_first_np_);
    }
}

std::uint64_t SessionFold::num_sessions() const noexcept {
    std::uint64_t total = 0;
    for (const auto n : flows_) total += n;
    return total;
}

SessionPatternShares SessionFold::patterns() const {
    SessionPatternShares out;
    out.total_sessions = scoped_;
    if (scoped_ == 0) return out;
    const auto share = [t = static_cast<double>(scoped_)](std::uint64_t c) {
        return static_cast<double>(c) / t;
    };
    out.single_flow = share(single_p_ + single_np_);
    out.single_preferred = share(single_p_);
    out.single_non_preferred = share(single_np_);
    out.two_flow = share(pp_ + pn_ + np_ + nn_);
    out.two_pref_pref = share(pp_);
    out.two_pref_nonpref = share(pn_);
    out.two_nonpref_pref = share(np_);
    out.two_nonpref_nonpref = share(nn_);
    out.more_flows = share(more_all_p_ + more_first_p_ + more_first_np_);
    return out;
}

MultiFlowPatternShares SessionFold::multi_flow() const {
    MultiFlowPatternShares out;
    out.sessions = more_all_p_ + more_first_p_ + more_first_np_;
    if (out.sessions == 0) return out;
    const double n = static_cast<double>(out.sessions);
    out.share_of_all_sessions = n / static_cast<double>(scoped_);
    out.all_preferred = static_cast<double>(more_all_p_) / n;
    out.first_preferred_then_other = static_cast<double>(more_first_p_) / n;
    out.first_non_preferred = static_cast<double>(more_first_np_) / n;
    return out;
}

HotServerSessions SessionFold::hot_server(net::IpAddress server,
                                          const std::string& name) const {
    // A session arriving at a preferred-DC server starts preferred, so
    // "others" stays empty; all three series share one length.
    std::vector<std::uint64_t> all_pref, first_pref;
    for (const std::uint64_t a : arrivals_) {
        if (a >> 32 != server.value()) continue;
        auto& hours = (a & 1u) != 0 ? all_pref : first_pref;
        const auto hour = static_cast<std::size_t>((a & 0xFFFFFFFFu) >> 1);
        if (hour >= hours.size()) hours.resize(hour + 1);
        ++hours[hour];
    }
    const std::size_t n = std::max(all_pref.size(), first_pref.size());
    all_pref.resize(n, 0);
    first_pref.resize(n, 0);
    HotServerSessions out;
    out.server = server;
    out.all_preferred = to_series(all_pref, name + " all-preferred");
    out.first_preferred_then_other =
        to_series(first_pref, name + " first-preferred-then-other");
    out.others = to_series(std::vector<std::uint64_t>(n, 0), name + " others");
    return out;
}

// --- IncrementalVideoLoad ----------------------------------------------------

IncrementalVideoLoad::IncrementalVideoLoad(int preferred,
                                           std::vector<cdn::VideoId> videos)
    : preferred_(preferred),
      videos_(std::move(videos)),
      all_(videos_.size()),
      np_(videos_.size()) {}

void IncrementalVideoLoad::add(const capture::FlowRecord& r, const ServerDcMap& map) {
    const auto it = std::find(videos_.begin(), videos_.end(), r.video);
    if (it == videos_.end()) return;
    const auto v = static_cast<std::size_t>(it - videos_.begin());
    const int dc = map.dc_of(r.server_ip);
    if (v == 0 && dc == preferred_) ++first_video_servers_[r.server_ip];
    if (classify_flow_size(r.bytes) != FlowKind::Video || dc < 0) return;
    ++sim::hour_slot(all_[v], r.start);
    if (dc != preferred_) ++sim::hour_slot(np_[v], r.start);
}

VideoLoadSeries IncrementalVideoLoad::load(std::size_t v) const {
    auto np = np_[v];
    np.resize(all_[v].size(), 0);
    const std::string label = "video" + std::to_string(v + 1);
    return {to_series(all_[v], label + " all"), to_series(np, label + " non-preferred")};
}

std::optional<net::IpAddress> IncrementalVideoLoad::hot_server() const {
    std::optional<net::IpAddress> best;
    std::uint64_t most = 0;
    for (const auto& [ip, count] : first_video_servers_) {
        if (!best || count > most || (count == most && ip < *best)) {
            best = ip;
            most = count;
        }
    }
    return best;
}

// --- ReportFolds -------------------------------------------------------------

ReportFolds::ReportFolds(VantageScope vantage)
    : scope(std::move(vantage)),
      as(*scope.whois, scope.local_as),
      sessions(scope.preferred, 1.0),
      hourly(scope.preferred, scope.name),
      subnets(scope.preferred, scope.subnets),
      redirects(scope.preferred),
      server_load(scope.preferred, scope.name) {}

void ReportFolds::add(const capture::FlowRecord& r) {
    const int dc = scope.map->dc_of(r.server_ip);
    summary.add(r);
    as.add(r);
    resolutions.add(r);
    flow_sizes.add(static_cast<double>(r.bytes));
    sessions.add(r, dc);
    traffic.add(r, dc);
    hourly.add(r, dc);
    subnets.add(r, dc);
    redirects.add(r, dc);
    server_load.add(r, dc);
}

void ReportFolds::finish() {
    sessions.finish();
    flow_sizes.finalize();
    // Fig. 14's four most-redirected videos; Fig. 16 follows the first.
    hot_videos = IncrementalVideoLoad(scope.preferred, redirects.top_videos(4));
}

ReportFolds fold_report(const capture::FlowReplay& records, VantageScope vantage) {
    ReportFolds folds(std::move(vantage));
    records.for_each_block([&folds](std::span<const capture::FlowRecord> block) {
        for (const auto& r : block) folds.add(r);
    });
    folds.finish();
    records.for_each_block([&folds](std::span<const capture::FlowRecord> block) {
        for (const auto& r : block) folds.add_second(r);
    });
    return folds;
}

}  // namespace ytcdn::analysis
