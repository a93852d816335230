#pragma once

#include <span>
#include <string>
#include <vector>

#include "capture/dataset.hpp"
#include "net/subnet.hpp"

namespace ytcdn::analysis {

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

/// Computes Fig. 12's per-subnet breakdown: which internal subnets the
/// non-preferred accesses come from. `dc` is the dataset's dc_column (see
/// analysis/session.hpp). Flows from clients outside every given subnet are
/// ignored; flows to unmapped (legacy) servers are ignored.
[[nodiscard]] std::vector<SubnetShare> subnet_breakdown(
    const capture::Dataset& dataset, std::span<const int> dc, int preferred,
    const std::vector<NamedSubnet>& subnets);

}  // namespace ytcdn::analysis
