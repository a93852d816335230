#include "workload/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

namespace workload = ytcdn::workload;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

workload::VantagePoint make_vp() {
    workload::VantagePoint vp;
    vp.name = std::string(1, 'T');  // not `= "T"`: GCC 12 -Wrestrict false positive
    vp.tech = workload::AccessTech::Adsl;
    vp.pop_site = net::NetSite{0x100, {45.0, 7.0}, 0.0};
    vp.subnets = {
        {"A", net::Subnet{net::IpAddress::from_octets(10, 0, 0, 0), 24}, 0.5, 0},
        {"B", net::Subnet{net::IpAddress::from_octets(10, 0, 1, 0), 24}, 0.3, 0},
        {"C", net::Subnet{net::IpAddress::from_octets(10, 0, 2, 0), 24}, 0.2, 1},
    };
    return vp;
}

TEST(Population, CountsAndSharesRespected) {
    auto vp = make_vp();
    sim::Rng rng(1);
    workload::populate_clients(vp, 200, rng);
    EXPECT_EQ(vp.clients.size(), 200u);

    std::map<int, int> per_subnet;
    for (const auto& c : vp.clients) ++per_subnet[c.subnet_index];
    EXPECT_NEAR(per_subnet[0], 100, 2);
    EXPECT_NEAR(per_subnet[1], 60, 2);
    EXPECT_NEAR(per_subnet[2], 40, 2);
}

TEST(Population, ClientsLiveInsideTheirSubnetWithUniqueIps) {
    auto vp = make_vp();
    sim::Rng rng(2);
    workload::populate_clients(vp, 150, rng);
    std::set<net::IpAddress> ips;
    for (const auto& c : vp.clients) {
        const auto& group = vp.subnets[static_cast<std::size_t>(c.subnet_index)];
        EXPECT_TRUE(group.prefix.contains(c.ip)) << c.ip.to_string();
        EXPECT_TRUE(ips.insert(c.ip).second) << "duplicate " << c.ip.to_string();
        EXPECT_EQ(c.ldns, group.ldns);
    }
}

TEST(Population, ClientsShareThePopSiteId) {
    auto vp = make_vp();
    sim::Rng rng(3);
    workload::populate_clients(vp, 50, rng);
    for (const auto& c : vp.clients) {
        EXPECT_EQ(c.site.id, vp.pop_site.id);
        // ADSL access RTT jittered around 16 ms.
        EXPECT_GT(c.site.access_rtt_ms, 16.0 * 0.7);
        EXPECT_LT(c.site.access_rtt_ms, 16.0 * 1.5);
        EXPECT_GT(c.downstream_bps, 4e6 * 0.6);
    }
}

TEST(Population, SubnetTooSmallThrows) {
    auto vp = make_vp();
    vp.subnets[0].prefix = net::Subnet{net::IpAddress::from_octets(10, 9, 0, 0), 30};
    sim::Rng rng(4);
    EXPECT_THROW(workload::populate_clients(vp, 200, rng), std::invalid_argument);
}

TEST(Population, MaxClientsIsTheExactAcceptanceBoundary) {
    auto vp = make_vp();
    const std::size_t cap = workload::max_clients(vp);
    ASSERT_GT(cap, 0u);
    // /24s hold 254 usable hosts; subnet A (share 0.5) binds first.
    EXPECT_LE(cap, 3 * 254u);

    sim::Rng rng(9);
    auto at_cap = vp;
    workload::populate_clients(at_cap, cap, rng);
    EXPECT_EQ(at_cap.clients.size(), cap);
    auto over_cap = vp;
    EXPECT_THROW(workload::populate_clients(over_cap, cap + 1, rng),
                 std::invalid_argument);

    workload::VantagePoint empty;
    EXPECT_EQ(workload::max_clients(empty), 0u);
}

TEST(Population, InvalidInputsThrow) {
    auto vp = make_vp();
    sim::Rng rng(5);
    EXPECT_THROW(workload::populate_clients(vp, 0, rng), std::invalid_argument);
    vp.subnets.clear();
    EXPECT_THROW(workload::populate_clients(vp, 10, rng), std::invalid_argument);
    auto vp2 = make_vp();
    vp2.subnets[1].ldns = ytcdn::cdn::kInvalidLdns;
    EXPECT_THROW(workload::populate_clients(vp2, 10, rng), std::invalid_argument);
}

TEST(Population, SamplingIsSkewedButCoversSubnets) {
    auto vp = make_vp();
    sim::Rng rng(6);
    workload::populate_clients(vp, 100, rng);

    std::map<std::size_t, int> hits;
    sim::Rng sample_rng(7);
    for (int i = 0; i < 20000; ++i) {
        ++hits[workload::sample_client_index(vp, sample_rng)];
    }
    // Heavy-tail: the most active client gets well above the uniform share.
    int max_hits = 0;
    for (const auto& [idx, n] : hits) max_hits = std::max(max_hits, n);
    EXPECT_GT(max_hits, 2 * 20000 / 100);
    // Subnet-level request shares still track client shares.
    std::map<int, int> subnet_hits;
    for (const auto& [idx, n] : hits) {
        subnet_hits[vp.clients[idx].subnet_index] += n;
    }
    EXPECT_NEAR(static_cast<double>(subnet_hits[0]) / 20000.0, 0.5, 0.15);
}

TEST(Population, SampleBeforePopulateThrows) {
    auto vp = make_vp();
    sim::Rng rng(8);
    EXPECT_THROW((void)workload::sample_client_index(vp, rng), std::logic_error);
}

TEST(AccessTech, Characteristics) {
    using workload::AccessTech;
    EXPECT_LT(workload::access_rtt_ms(AccessTech::Campus),
              workload::access_rtt_ms(AccessTech::Ftth));
    EXPECT_LT(workload::access_rtt_ms(AccessTech::Ftth),
              workload::access_rtt_ms(AccessTech::Adsl));
    EXPECT_GT(workload::downstream_bps(AccessTech::Campus),
              workload::downstream_bps(AccessTech::Adsl));
    EXPECT_EQ(workload::to_string(AccessTech::Adsl), "adsl");
}

TEST(Population, ClientTableReturnsLowerBoundEverywhere) {
    // The guide table must return std::lower_bound's index at every weight
    // in the table, one ulp either side of it, and at random draws.
    auto vp = make_vp();
    sim::Rng rng(9);
    workload::populate_clients(vp, workload::max_clients(vp), rng);
    const auto& cdf = vp.client_activity_cdf;
    const auto& v = cdf.values();
    ASSERT_GT(v.size(), 500u);
    std::size_t bad = 0;
    const auto check = [&](double u) {
        const auto want =
            static_cast<std::size_t>(std::lower_bound(v.begin(), v.end(), u) - v.begin());
        if (cdf.lower_bound(u) != want) ++bad;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double x : v) {
        check(x);
        check(std::nextafter(x, -kInf));
        check(std::nextafter(x, kInf));
    }
    sim::Rng draws(10);
    for (int i = 0; i < 200000; ++i) check(draws.uniform(0.0, cdf.back()));
    EXPECT_EQ(bad, 0u);
}

}  // namespace
