#include "analysis/subnet_analysis.hpp"

#include "analysis/session.hpp"

namespace ytcdn::analysis {

namespace {

struct SubnetTally {
    std::vector<std::uint64_t> all;
    std::vector<std::uint64_t> np;
    std::uint64_t total_all = 0;
    std::uint64_t total_np = 0;
};

void tally_flow(SubnetTally& t, const std::vector<NamedSubnet>& subnets,
                net::IpAddress client, int dc, int preferred) {
    for (std::size_t i = 0; i < subnets.size(); ++i) {
        if (!subnets[i].prefix.contains(client)) continue;
        ++t.all[i];
        ++t.total_all;
        if (dc != preferred) {
            ++t.np[i];
            ++t.total_np;
        }
        break;
    }
}

std::vector<SubnetShare> shares_of(const SubnetTally& t,
                                   const std::vector<NamedSubnet>& subnets);

}  // namespace

std::vector<SubnetShare> subnet_breakdown(const capture::Dataset& dataset,
                                          std::span<const int> dc, int preferred,
                                          const std::vector<NamedSubnet>& subnets) {
    SubnetTally t{std::vector<std::uint64_t>(subnets.size(), 0),
                  std::vector<std::uint64_t>(subnets.size(), 0), 0, 0};
    for (std::size_t i = 0; i < dataset.records.size(); ++i) {
        const auto& r = dataset.records[i];
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        if (dc[i] < 0) continue;
        tally_flow(t, subnets, r.client_ip, dc[i], preferred);
    }
    return shares_of(t, subnets);
}

namespace {

std::vector<SubnetShare> shares_of(const SubnetTally& t,
                                   const std::vector<NamedSubnet>& subnets) {
    const auto& all = t.all;
    const auto& np = t.np;
    const std::uint64_t total_all = t.total_all;
    const std::uint64_t total_np = t.total_np;
    std::vector<SubnetShare> out;
    out.reserve(subnets.size());
    for (std::size_t i = 0; i < subnets.size(); ++i) {
        SubnetShare s;
        s.name = subnets[i].name;
        s.all_flows_share =
            total_all == 0 ? 0.0
                           : static_cast<double>(all[i]) / static_cast<double>(total_all);
        s.non_preferred_share =
            total_np == 0 ? 0.0
                          : static_cast<double>(np[i]) / static_cast<double>(total_np);
        out.push_back(std::move(s));
    }
    return out;
}

}  // namespace

}  // namespace ytcdn::analysis
