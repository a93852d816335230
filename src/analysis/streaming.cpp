#include "analysis/streaming.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/session.hpp"
#include "sim/time.hpp"

namespace ytcdn::analysis {

// --- IncrementalDcTraffic ----------------------------------------------------

void IncrementalDcTraffic::add(const capture::FlowRecord& record, int dc) {
    if (dc < 0) return;
    auto& t = tally_[dc];
    t.dc = dc;
    t.bytes += record.bytes;
    if (classify_flow_size(record.bytes) == FlowKind::Video) ++t.video_flows;
}

std::vector<DcTraffic> IncrementalDcTraffic::traffic() const {
    std::vector<DcTraffic> out;
    out.reserve(tally_.size());
    for (const auto& [dc, t] : tally_) out.push_back(t);
    std::sort(out.begin(), out.end(), [](const DcTraffic& a, const DcTraffic& b) {
        if (a.bytes != b.bytes) return a.bytes > b.bytes;
        return a.dc < b.dc;
    });
    return out;
}

int IncrementalDcTraffic::preferred(const ServerDcMap& map,
                                    double heavy_share) const {
    const auto traffic_sorted = traffic();
    if (traffic_sorted.empty()) return -1;
    std::uint64_t total = 0;
    for (const auto& t : traffic_sorted) total += t.bytes;
    if (total == 0) return traffic_sorted.front().dc;

    int best = traffic_sorted.front().dc;
    double best_rtt = map.info(best).rtt_ms;
    for (const auto& t : traffic_sorted) {
        if (static_cast<double>(t.bytes) / static_cast<double>(total) < heavy_share) {
            break;  // sorted by bytes: no more heavy hitters
        }
        if (map.info(t.dc).rtt_ms < best_rtt) {
            best = t.dc;
            best_rtt = map.info(t.dc).rtt_ms;
        }
    }
    return best;
}

NonPreferredShare IncrementalDcTraffic::share(int preferred) const {
    std::uint64_t bytes_all = 0;
    std::uint64_t bytes_np = 0;
    std::uint64_t flows_all = 0;
    std::uint64_t flows_np = 0;
    for (const auto& [dc, t] : tally_) {
        bytes_all += t.bytes;
        flows_all += t.video_flows;
        if (dc != preferred) {
            bytes_np += t.bytes;
            flows_np += t.video_flows;
        }
    }
    NonPreferredShare s;
    if (bytes_all > 0) {
        s.byte_fraction = static_cast<double>(bytes_np) / static_cast<double>(bytes_all);
    }
    if (flows_all > 0) {
        s.flow_fraction = static_cast<double>(flows_np) / static_cast<double>(flows_all);
    }
    return s;
}

// --- IncrementalHourlyLoad ---------------------------------------------------

void IncrementalHourlyLoad::add(const capture::FlowRecord& record, int dc) {
    if (classify_flow_size(record.bytes) != FlowKind::Video) return;
    if (dc < 0) return;
    ++sim::hour_slot(all_, record.start);
    sim::hour_slot(pref_, record.start) += dc == preferred_ ? 1 : 0;
}

EmpiricalCdf IncrementalHourlyLoad::non_preferred_cdf() const {
    EmpiricalCdf cdf;
    for (std::size_t h = 0; h < all_.size(); ++h) {
        if (all_[h] == 0) continue;  // empty slots carry no sample
        const double np = static_cast<double>(all_[h] - pref_[h]);
        cdf.add(np / static_cast<double>(all_[h]));
    }
    cdf.finalize();
    return cdf;
}

HourlyLoadSeries IncrementalHourlyLoad::preferred_series() const {
    HourlyLoadSeries out;
    out.fraction_preferred.name = name_ + " fraction-to-preferred";
    out.flows_per_hour.name = name_ + " video-flows-per-hour";
    for (std::size_t h = 0; h < all_.size(); ++h) {
        const double x = static_cast<double>(h);
        out.flows_per_hour.points.emplace_back(x, static_cast<double>(all_[h]));
        if (all_[h] > 0) {
            out.fraction_preferred.points.emplace_back(
                x, static_cast<double>(pref_[h]) / static_cast<double>(all_[h]));
        }
    }
    return out;
}

double pearson_correlation(const Series& a, const Series& b) {
    const std::size_t n = std::min(a.points.size(), b.points.size());
    if (n < 3) return 0.0;
    double ma = 0.0, mb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ma += a.points[i].second;
        mb += b.points[i].second;
    }
    ma /= static_cast<double>(n);
    mb /= static_cast<double>(n);
    double cov = 0.0, va = 0.0, vb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double da = a.points[i].second - ma;
        const double db = b.points[i].second - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    if (va <= 0.0 || vb <= 0.0) return 0.0;
    return cov / std::sqrt(va * vb);
}

double IncrementalHourlyLoad::correlation(std::uint64_t min_flows) const {
    Series flows, np_fraction;
    for (std::size_t h = 0; h < all_.size(); ++h) {
        if (all_[h] < min_flows) continue;
        const double x = static_cast<double>(h);
        flows.points.emplace_back(x, static_cast<double>(all_[h]));
        np_fraction.points.emplace_back(
            x, static_cast<double>(all_[h] - pref_[h]) /
                   static_cast<double>(all_[h]));
    }
    return pearson_correlation(flows, np_fraction);
}

// --- IncrementalVideoRedirects -----------------------------------------------

void IncrementalVideoRedirects::add(const capture::FlowRecord& record, int dc) {
    if (classify_flow_size(record.bytes) != FlowKind::Video) return;
    if (dc < 0 || dc == preferred_) return;
    ++counts_[record.video];
}

EmpiricalCdf IncrementalVideoRedirects::counts_cdf() const {
    EmpiricalCdf cdf;
    for (const auto& [video, count] : counts_) cdf.add(static_cast<double>(count));
    cdf.finalize();
    return cdf;
}

std::vector<cdn::VideoId> IncrementalVideoRedirects::top_videos(
    std::size_t k) const {
    std::vector<std::pair<std::uint64_t, cdn::VideoId>> ranked;
    ranked.reserve(counts_.size());
    for (const auto& [video, count] : counts_) ranked.emplace_back(count, video);
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

// --- IncrementalSubnetBreakdown ----------------------------------------------

IncrementalSubnetBreakdown::IncrementalSubnetBreakdown(
    int preferred, std::vector<NamedSubnet> subnets)
    : preferred_(preferred),
      subnets_(std::move(subnets)),
      all_(subnets_.size(), 0),
      np_(subnets_.size(), 0) {}

void IncrementalSubnetBreakdown::add(const capture::FlowRecord& record, int dc) {
    if (classify_flow_size(record.bytes) != FlowKind::Video) return;
    if (dc < 0) return;
    for (std::size_t i = 0; i < subnets_.size(); ++i) {
        if (!subnets_[i].prefix.contains(record.client_ip)) continue;
        ++all_[i];
        ++total_all_;
        if (dc != preferred_) {
            ++np_[i];
            ++total_np_;
        }
        break;  // first matching subnet wins
    }
}

std::vector<SubnetShare> IncrementalSubnetBreakdown::shares() const {
    std::vector<SubnetShare> out;
    out.reserve(subnets_.size());
    for (std::size_t i = 0; i < subnets_.size(); ++i) {
        SubnetShare s;
        s.name = subnets_[i].name;
        s.all_flows_share =
            total_all_ == 0
                ? 0.0
                : static_cast<double>(all_[i]) / static_cast<double>(total_all_);
        s.non_preferred_share =
            total_np_ == 0
                ? 0.0
                : static_cast<double>(np_[i]) / static_cast<double>(total_np_);
        out.push_back(std::move(s));
    }
    return out;
}

// --- IncrementalServerLoad ---------------------------------------------------

void IncrementalServerLoad::add(const capture::FlowRecord& record, int dc) {
    if (dc != preferred_) return;
    ++sim::hour_slot(hours_, record.start)[record.server_ip];
}

ServerLoadSeries IncrementalServerLoad::series() const {
    ServerLoadSeries out;
    out.avg.name = name_ + " per-server-avg";
    out.max.name = name_ + " per-server-max";
    for (std::size_t h = 0; h < hours_.size(); ++h) {
        if (hours_[h].empty()) continue;
        MinMeanMax m;
        for (const auto& [ip, count] : hours_[h]) m.add(static_cast<double>(count));
        out.avg.points.emplace_back(static_cast<double>(h), m.mean());
        out.max.points.emplace_back(static_cast<double>(h), m.max);
    }
    return out;
}

}  // namespace ytcdn::analysis
