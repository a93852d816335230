#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/series.hpp"
#include "analysis/stats.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"
#include "capture/flow_replay.hpp"
#include "net/subnet.hpp"

namespace ytcdn::analysis {

/// The §VII per-flow tallies, each defined once, as a fold that consumes
/// one flow record at a time (DESIGN.md §16). Each add() takes the
/// pre-resolved data-center index for the flow's server
/// (`map.dc_of(server_ip)`, -1 when unmapped), decoupling the accumulators
/// from the map so the caller resolves once per record.
///
/// The report feeds them through ReportFolds (analysis/report_folds.hpp),
/// a one-vantage-point caller through fold_records() below, and the out-of-core
/// scale study (and perfbench's traced replica of it) over re-read spill
/// blocks; ytcdnd feeds IncrementalDcTraffic per stream as flows arrive.
/// All tallies are order-independent integers except IncrementalServerLoad,
/// whose float mean depends on the insertion sequence (see its note);
/// dataset order is that sequence. Their reference is the golden report digest
/// (Determinism.FoldedArtifactsMatchGoldenDigest) plus the hand-computed
/// fixtures of each analysis entry point.

/// Feeds `fold` every record `records` replays (a Dataset, or a log held
/// as pieces), in order, and returns it.
template <class Fold>
[[nodiscard]] Fold fold_records(const capture::FlowReplay& records, Fold fold) {
    records.for_each_block([&fold](std::span<const capture::FlowRecord> block) {
        for (const auto& r : block) fold.add(r);
    });
    return fold;
}

/// Same, resolving each record's data center through `map`.
template <class Fold>
[[nodiscard]] Fold fold_records(const capture::FlowReplay& records,
                                const ServerDcMap& map, Fold fold) {
    records.for_each_block([&fold, &map](std::span<const capture::FlowRecord> block) {
        for (const auto& r : block) fold.add(r, map.dc_of(r.server_ip));
    });
    return fold;
}

/// Streams the per-DC byte/flow tallies behind traffic_by_dc(),
/// preferred_dc(), non_preferred_share() and Figs 7/8's byte curves.
/// Order-independent.
class IncrementalDcTraffic {
public:
    void add(const capture::FlowRecord& record, int dc);

    /// traffic_by_dc() of everything added: sorted by (bytes desc, dc asc).
    [[nodiscard]] std::vector<DcTraffic> traffic() const;
    /// preferred_dc() of everything added so far.
    [[nodiscard]] int preferred(const ServerDcMap& map,
                                double heavy_share = 0.20) const;
    /// non_preferred_share() of everything added so far.
    [[nodiscard]] NonPreferredShare share(int preferred) const;

    /// Checkpoint restore: reinstates one data center's tally (t.dc >= 0).
    void restore(const DcTraffic& t) { tally_[t.dc] = t; }

private:
    std::unordered_map<int, DcTraffic> tally_;
};

/// Fig. 11: per-hour fraction of video flows served by the preferred (EU2:
/// in-ISP) data center, and the per-hour total number of video flows.
struct HourlyLoadSeries {
    Series fraction_preferred;  // x = hour index, y in [0, 1]
    Series flows_per_hour;      // x = hour index, y = count
};

/// Pearson correlation between two series' y-values, matched by index.
/// Returns 0 when either series is degenerate (constant or too short).
[[nodiscard]] double pearson_correlation(const Series& a, const Series& b);

/// Streams the per-hour (all, preferred) video-flow tallies behind Figs 9
/// and 11 and the §VII-A load correlation. Order-independent.
class IncrementalHourlyLoad {
public:
    IncrementalHourlyLoad(int preferred, std::string name)
        : preferred_(preferred), name_(std::move(name)) {}

    void add(const capture::FlowRecord& record, int dc);

    /// Fig. 9: over one-hour slots, the fraction of video flows directed
    /// to non-preferred data centers.
    [[nodiscard]] EmpiricalCdf non_preferred_cdf() const;
    [[nodiscard]] HourlyLoadSeries preferred_series() const;     // Fig. 11
    /// Section VII-A's discriminator: at EU2 the hourly non-preferred
    /// fraction tracks the hourly request volume (adaptive DNS balancing
    /// reacts to load); at the other vantage points "there is much less
    /// correlation with the number of requests". corr(flows/hour,
    /// non-preferred fraction/hour) over hours with >= `min_flows` flows.
    [[nodiscard]] double correlation(std::uint64_t min_flows = 5) const;

private:
    int preferred_;
    std::string name_;
    std::vector<std::uint64_t> all_;
    std::vector<std::uint64_t> pref_;
};

/// Streams the per-video non-preferred video-flow download counts behind
/// Figs 13/14. Order-independent (the CDF sorts, the ranking is a total
/// order).
class IncrementalVideoRedirects {
public:
    explicit IncrementalVideoRedirects(int preferred) : preferred_(preferred) {}

    void add(const capture::FlowRecord& record, int dc);

    /// Fig. 13: for every video downloaded at least once from a
    /// non-preferred data center, the number of such downloads. The CDF
    /// separates the unpopular-content effect (mass at exactly 1) from the
    /// hot-spot tail.
    [[nodiscard]] EmpiricalCdf counts_cdf() const;
    /// Most-redirected videos, (count desc, video asc), at most k.
    [[nodiscard]] std::vector<cdn::VideoId> top_videos(std::size_t k) const;
    /// Distinct videos with at least one non-preferred download.
    [[nodiscard]] std::uint64_t num_videos() const noexcept {
        return counts_.size();
    }

private:
    int preferred_;
    std::unordered_map<cdn::VideoId, std::uint64_t> counts_;
};

/// A named internal subnet of the monitored network.
struct NamedSubnet {
    std::string name;
    net::Subnet prefix;
};

/// One bar pair of Fig. 12: the subnet's share of all video flows and its
/// share of the video flows that went to non-preferred data centers.
struct SubnetShare {
    std::string name;
    double all_flows_share = 0.0;
    double non_preferred_share = 0.0;
};

/// Streams Fig. 12's per-subnet breakdown: which internal subnets the
/// non-preferred accesses come from. Flows from clients outside every
/// subnet, and flows to unmapped (legacy) servers, are ignored; the first
/// matching subnet wins. Order-independent.
class IncrementalSubnetBreakdown {
public:
    IncrementalSubnetBreakdown(int preferred, std::vector<NamedSubnet> subnets);

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] std::vector<SubnetShare> shares() const;

private:
    int preferred_;
    std::vector<NamedSubnet> subnets_;
    std::vector<std::uint64_t> all_;
    std::vector<std::uint64_t> np_;
    std::uint64_t total_all_ = 0;
    std::uint64_t total_np_ = 0;
};

/// Fig. 15: per-hour average and maximum number of video requests handled
/// by a single server of the preferred data center.
struct ServerLoadSeries {
    Series avg;
    Series max;
};

/// Streams Fig. 15's per-hour per-server request tallies for the preferred
/// data center. The hourly mean accumulates doubles over unordered-map
/// iteration, so the rendered bytes depend on the *insertion sequence* per
/// hour map. ReportFolds and fold_records feed dataset order; the scale
/// study's spill replays the FlowSink's time-sorted order, which matches it
/// except at exact start-time ties across distinct servers (measure zero
/// under the continuous workload).
class IncrementalServerLoad {
public:
    IncrementalServerLoad(int preferred, std::string name)
        : preferred_(preferred), name_(std::move(name)) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] ServerLoadSeries series() const;

private:
    int preferred_;
    std::string name_;
    std::vector<std::unordered_map<net::IpAddress, std::uint64_t>> hours_;
};

}  // namespace ytcdn::analysis
