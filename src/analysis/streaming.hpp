#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/redirect_analysis.hpp"
#include "analysis/subnet_analysis.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// The §VII per-flow tallies, each defined once, as a fold that consumes
/// one flow record at a time (DESIGN.md §16). Each add() takes the
/// pre-resolved data-center index for the flow's server
/// (`map.dc_of(server_ip)`, -1 when unmapped), decoupling the accumulators
/// from the map so the caller resolves once per record.
///
/// Three drivers feed the same folds: the batch report and the analysis
/// entry points (traffic_by_dc, hourly_non_preferred_fraction, ...) through
/// fold_records() below, the out-of-core scale study over re-read spill
/// blocks, and perfbench's traced replica of it. ytcdnd feeds
/// IncrementalDcTraffic per stream as flows arrive. All tallies are
/// order-independent integers except IncrementalServerLoad, whose float
/// mean depends on the insertion sequence (see its note); dataset order is
/// that sequence. Their reference is the golden report digest
/// (Determinism.FoldedArtifactsMatchGoldenDigest) plus the hand-computed
/// fixtures of each analysis entry point.

/// Feeds `fold` every record of `dataset`, in dataset order, and returns it.
template <class Fold>
[[nodiscard]] Fold fold_records(const capture::Dataset& dataset, Fold fold) {
    for (const auto& r : dataset.records) fold.add(r);
    return fold;
}

/// Feeds `fold` every record of `dataset` with its data center `dc[i]` (the
/// dataset's dc_column), in dataset order, and returns it.
template <class Fold>
[[nodiscard]] Fold fold_records(const capture::Dataset& dataset,
                                std::span<const int> dc, Fold fold) {
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        fold.add(dataset.records[i], dc[i]);
    }
    return fold;
}

/// Same, resolving each record's data center through `map` on the fly.
template <class Fold>
[[nodiscard]] Fold fold_records(const capture::Dataset& dataset,
                                const ServerDcMap& map, Fold fold) {
    for (const auto& r : dataset.records) fold.add(r, map.dc_of(r.server_ip));
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

/// Streams the per-hour (all, preferred) video-flow tallies behind Figs 9
/// and 11 and the §VII-A load correlation. Order-independent.
class IncrementalHourlyLoad {
public:
    IncrementalHourlyLoad(int preferred, std::string name)
        : preferred_(preferred), name_(std::move(name)) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] EmpiricalCdf non_preferred_cdf() const;        // Fig. 9
    [[nodiscard]] HourlyLoadSeries preferred_series() const;     // Fig. 11
    [[nodiscard]] double correlation(std::uint64_t min_flows = 5) const;

private:
    int preferred_;
    std::string name_;
    std::vector<std::uint64_t> all_;
    std::vector<std::uint64_t> pref_;
};

/// Streams the per-video non-preferred download counts behind Figs 13/14.
/// Order-independent (the CDF sorts, the ranking is a total order).
class IncrementalVideoRedirects {
public:
    explicit IncrementalVideoRedirects(int preferred) : preferred_(preferred) {}

    void add(const capture::FlowRecord& record, int dc);

    [[nodiscard]] EmpiricalCdf counts_cdf() const;               // Fig. 13
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

/// Streams Fig. 12's per-subnet breakdown. Order-independent.
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

/// Streams Fig. 15's per-hour per-server request tallies for the preferred
/// data center. The hourly mean accumulates doubles over unordered-map
/// iteration, so the rendered bytes depend on the *insertion sequence* per
/// hour map. fold_records feeds dataset order; the scale study's spill
/// replays the FlowSink's time-sorted order, which matches it except at
/// exact start-time ties across distinct servers (measure zero under the
/// continuous workload).
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
