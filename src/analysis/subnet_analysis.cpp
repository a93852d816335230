#include "analysis/subnet_analysis.hpp"

#include "analysis/streaming.hpp"

namespace ytcdn::analysis {

std::vector<SubnetShare> subnet_breakdown(const capture::Dataset& dataset,
                                          std::span<const int> dc, int preferred,
                                          const std::vector<NamedSubnet>& subnets) {
    return fold_records(dataset, dc, IncrementalSubnetBreakdown(preferred, subnets))
        .shares();
}

}  // namespace ytcdn::analysis
