// analysis::subnet unit tests pinned to Fig. 12: which internal subnets the
// non-preferred accesses come from. The paper's EU1 finding — one subnet
// (Net-3, behind a proxy) originates a small share of all video flows but a
// dominant share of the non-preferred ones — is the shape these tests lock
// down, plus the scoping rules (first matching subnet wins, out-of-scope
// clients and unmapped servers are ignored).

#include <gtest/gtest.h>

#include "analysis/streaming.hpp"
#include "analysis/session.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace geo = ytcdn::geo;
namespace net = ytcdn::net;

namespace {

class SubnetFixture : public ::testing::Test {
protected:
    SubnetFixture() {
        milan_ = map_.add_data_center(
            {"Milan", {45.46, 9.19}, geo::Continent::Europe, 10.0, 125.0});
        frankfurt_ = map_.add_data_center(
            {"Frankfurt", {50.11, 8.68}, geo::Continent::Europe, 30.0, 550.0});
        map_.assign(server(0), milan_);
        map_.assign(server(1), frankfurt_);
        ds_.name = "EU1";
    }

    static net::IpAddress server(int dc) {
        return net::IpAddress::from_octets(173, 194, static_cast<std::uint8_t>(dc), 1);
    }
    static net::IpAddress client(int subnet, std::uint8_t host) {
        return net::IpAddress::from_octets(10, 0, static_cast<std::uint8_t>(subnet),
                                           host);
    }

    void add_flow(int dc, int subnet, double t = 0.0,
                  std::uint64_t bytes = 10'000) {
        capture::FlowRecord r;
        r.client_ip = client(subnet, 1);
        r.server_ip = server(dc);
        r.video = cdn::VideoId{1};
        r.start = t;
        r.end = t + 10.0;
        r.bytes = bytes;
        ds_.records.push_back(r);
    }

    static std::vector<analysis::NamedSubnet> nets(int count) {
        std::vector<analysis::NamedSubnet> out;
        for (int i = 0; i < count; ++i) {
            out.push_back({"Net-" + std::to_string(i + 1),
                           net::Subnet{client(i, 0), 24}});
        }
        return out;
    }

    /// Fig. 12's breakdown of ds_ under map_.
    [[nodiscard]] std::vector<analysis::SubnetShare> subnet_shares(
        std::vector<analysis::NamedSubnet> subnets) const {
        analysis::IncrementalSubnetBreakdown fold(milan_, std::move(subnets));
        return analysis::fold_records(ds_, map_, std::move(fold)).shares();
    }
    analysis::ServerDcMap map_;
    capture::Dataset ds_;
    int milan_{}, frankfurt_{};
};

TEST_F(SubnetFixture, Fig12ProxySubnetDominatesNonPreferredAccesses) {
    // Net-1 and Net-2 each carry 45% of the video flows, all preferred.
    // Net-3 carries 10% of the flows but every one of them overflows — the
    // proxy pattern: a small subnet owning ~100% of the non-preferred share.
    for (int i = 0; i < 45; ++i) add_flow(0, 0, i);
    for (int i = 0; i < 45; ++i) add_flow(0, 1, 100.0 + i);
    for (int i = 0; i < 10; ++i) add_flow(1, 2, 200.0 + i);

    const auto shares = subnet_shares(nets(3));
    ASSERT_EQ(shares.size(), 3u);
    EXPECT_EQ(shares[2].name, "Net-3");
    EXPECT_NEAR(shares[2].all_flows_share, 0.1, 1e-9);
    EXPECT_NEAR(shares[2].non_preferred_share, 1.0, 1e-9);
    EXPECT_NEAR(shares[0].non_preferred_share, 0.0, 1e-9);
    // Shares are fractions of the in-scope totals: they sum to 1.
    double all_sum = 0.0, np_sum = 0.0;
    for (const auto& s : shares) {
        all_sum += s.all_flows_share;
        np_sum += s.non_preferred_share;
    }
    EXPECT_NEAR(all_sum, 1.0, 1e-9);
    EXPECT_NEAR(np_sum, 1.0, 1e-9);
}

TEST_F(SubnetFixture, FlowsOutsideEverySubnetAreIgnored) {
    add_flow(0, 0);
    add_flow(1, 7, 50.0);  // client 10.0.7.x: outside both monitored nets
    const auto shares = subnet_shares(nets(2));
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_NEAR(shares[0].all_flows_share, 1.0, 1e-9);  // of 1 in-scope flow
    EXPECT_NEAR(shares[0].non_preferred_share, 0.0, 1e-9);
    EXPECT_NEAR(shares[1].all_flows_share, 0.0, 1e-9);
}

TEST_F(SubnetFixture, ControlFlowsAndUnmappedServersAreOutOfScope) {
    add_flow(0, 0);
    add_flow(1, 0, 10.0, /*bytes=*/500);  // control flow
    capture::FlowRecord legacy;
    legacy.client_ip = client(0, 1);
    legacy.server_ip = net::IpAddress::from_octets(212, 187, 0, 1);  // unmapped
    legacy.video = cdn::VideoId{1};
    legacy.start = 20.0;
    legacy.end = 30.0;
    legacy.bytes = 10'000;
    ds_.records.push_back(legacy);

    const auto shares = subnet_shares(nets(1));
    ASSERT_EQ(shares.size(), 1u);
    EXPECT_NEAR(shares[0].all_flows_share, 1.0, 1e-9);
    EXPECT_NEAR(shares[0].non_preferred_share, 0.0, 1e-9);
}

TEST_F(SubnetFixture, FirstMatchingSubnetWins) {
    // A /16 covering everything listed before a /24: the broad subnet
    // swallows the flow, the narrow one stays empty.
    const std::vector<analysis::NamedSubnet> overlapping{
        {"broad", net::Subnet{net::IpAddress::from_octets(10, 0, 0, 0), 16}},
        {"narrow", net::Subnet{client(0, 0), 24}},
    };
    add_flow(1, 0);
    const auto shares = subnet_shares(overlapping);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_NEAR(shares[0].all_flows_share, 1.0, 1e-9);
    EXPECT_NEAR(shares[0].non_preferred_share, 1.0, 1e-9);
    EXPECT_NEAR(shares[1].all_flows_share, 0.0, 1e-9);
}

TEST_F(SubnetFixture, NoNonPreferredFlowsYieldsZeroSharesNotNaN) {
    add_flow(0, 0);
    add_flow(0, 1, 10.0);
    const auto shares = subnet_shares(nets(2));
    ASSERT_EQ(shares.size(), 2u);
    for (const auto& s : shares) {
        EXPECT_DOUBLE_EQ(s.non_preferred_share, 0.0);  // 0/0 guarded
    }
}

TEST_F(SubnetFixture, EmptyInputsYieldEmptyOrZeroOutput) {
    EXPECT_TRUE(subnet_shares({}).empty());
    const auto shares = subnet_shares(nets(1));
    ASSERT_EQ(shares.size(), 1u);
    EXPECT_DOUBLE_EQ(shares[0].all_flows_share, 0.0);
    EXPECT_DOUBLE_EQ(shares[0].non_preferred_share, 0.0);
}

}  // namespace
