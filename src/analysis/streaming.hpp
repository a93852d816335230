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
#include "capture/flow_record.hpp"

namespace ytcdn::analysis {

/// Out-of-core §VII analysis: incremental counterparts of the batch
/// modules, consuming one flow record at a time so a 10-100M-session run
/// fits bounded memory (DESIGN.md §16). Each add() takes the pre-resolved
/// data-center index for the flow's server (`map.dc_of(server_ip)`),
/// decoupling the accumulators from the map so the caller resolves once
/// per record.
///
/// Equivalence contract: feeding a module the records of a time-sorted
/// dataset in order produces *byte-identical* results to the batch analysis
/// over the whole dataset and its dc_column — the single batch
/// implementation of each figure, which tests/test_streaming_analysis.cpp
/// pins every module against, along with chunk-boundary invariance. All
/// tallies here are order-independent integers except
/// IncrementalServerLoad, which replicates the batch module's exact
/// insertion sequence (see its note).

/// Streams the per-DC byte/flow tallies behind preferred_dc() and
/// non_preferred_share(). Order-independent.
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

private:
    std::unordered_map<int, DcTraffic> tally_;
    std::uint64_t bytes_all_ = 0;
    std::uint64_t flows_all_ = 0;
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
/// iteration, so byte-identity with the batch module requires the *same
/// insertion sequence* per hour map — which holds exactly when records
/// arrive in the dataset's time-sorted order (the FlowSink ordering
/// contract; exact start-time ties across distinct servers would be the
/// only exception and have measure zero under the continuous workload).
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
