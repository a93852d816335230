#include "workload/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ytcdn::workload {

void populate_clients(VantagePoint& vp, std::size_t count, sim::Rng& rng) {
    if (vp.subnets.empty()) {
        throw std::invalid_argument("populate_clients: vantage point has no subnets");
    }
    if (count == 0) throw std::invalid_argument("populate_clients: count must be > 0");

    double total_share = 0.0;
    for (const auto& s : vp.subnets) {
        if (s.client_share <= 0.0) {
            throw std::invalid_argument("populate_clients: non-positive client_share");
        }
        if (s.ldns == cdn::kInvalidLdns) {
            throw std::invalid_argument("populate_clients: subnet without resolver");
        }
        total_share += s.client_share;
    }

    vp.clients.clear();
    vp.clients.reserve(count);
    std::vector<double> activity_cdf;
    activity_cdf.reserve(count);

    const double base_access = access_rtt_ms(vp.tech);
    const double bw = downstream_bps(vp.tech);
    double cumulative_weight = 0.0;
    std::size_t assigned = 0;

    for (std::size_t si = 0; si < vp.subnets.size(); ++si) {
        const auto& group = vp.subnets[si];
        // Last subnet absorbs rounding leftovers so totals always match.
        const std::size_t here =
            si + 1 == vp.subnets.size()
                ? count - assigned
                : static_cast<std::size_t>(std::llround(
                      static_cast<double>(count) * group.client_share / total_share));
        if (here + 2 > group.prefix.size()) {
            throw std::invalid_argument("populate_clients: subnet too small for " +
                                        group.name);
        }
        for (std::size_t i = 0; i < here; ++i) {
            Client c;
            c.id = static_cast<ClientId>(vp.clients.size());
            c.ip = group.prefix.address_at(i + 1);  // skip network address
            c.subnet_index = static_cast<int>(si);
            c.ldns = group.ldns;
            // Same wide-area paths as the PoP, individual last mile.
            c.site = net::NetSite{vp.pop_site.id, vp.pop_site.location,
                                  base_access * rng.uniform(0.8, 1.4)};
            c.downstream_bps = bw * rng.uniform(0.7, 1.3);
            vp.clients.push_back(c);

            // Heavy-tailed per-client activity: lognormal gives a small core
            // of heavy watchers without starving anyone.
            cumulative_weight += rng.lognormal(0.0, 1.2);
            activity_cdf.push_back(cumulative_weight);
        }
        assigned += here;
    }
    vp.client_activity_cdf = sim::GuidedCdf(std::move(activity_cdf));
}

std::size_t max_clients(const VantagePoint& vp) {
    if (vp.subnets.empty()) return 0;
    double total_share = 0.0;
    for (const auto& s : vp.subnets) {
        if (s.client_share <= 0.0) return 0;
        total_share += s.client_share;
    }

    // Replays populate_clients' exact rounding arithmetic (llround per
    // subnet, last absorbs leftovers) so the answer is the precise
    // boundary, not an estimate.
    const auto fits = [&](std::size_t count) {
        std::size_t assigned = 0;
        for (std::size_t si = 0; si < vp.subnets.size(); ++si) {
            const auto& group = vp.subnets[si];
            const std::size_t here =
                si + 1 == vp.subnets.size()
                    ? count - assigned
                    : static_cast<std::size_t>(std::llround(
                          static_cast<double>(count) * group.client_share /
                          total_share));
            if (here + 2 > group.prefix.size()) return false;
            assigned += here;
        }
        return true;
    };

    // Analytic bound per subnet (share of count must fit in size - 2),
    // then walk down over the rounding fringe to the exact maximum.
    double bound = 0.0;
    for (std::size_t si = 0; si < vp.subnets.size(); ++si) {
        const auto& group = vp.subnets[si];
        const double cap = (static_cast<double>(group.prefix.size()) - 2.0) *
                           total_share / group.client_share;
        bound = si == 0 ? cap : std::min(bound, cap);
    }
    auto count = static_cast<std::size_t>(bound) + vp.subnets.size() + 1;
    while (count > 0 && !fits(count)) --count;
    return count;
}

std::size_t sample_client_index(const VantagePoint& vp, sim::Rng& rng) {
    if (vp.client_activity_cdf.empty()) {
        throw std::logic_error("sample_client_index: populate_clients first");
    }
    return vp.client_activity_cdf.lower_bound(
        rng.uniform(0.0, vp.client_activity_cdf.back()));
}

}  // namespace ytcdn::workload
