#include "workload/request_generator.hpp"

#include <gtest/gtest.h>

#include "capture/sniffer.hpp"

namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace geo = ytcdn::geo;
namespace sim = ytcdn::sim;
namespace workload = ytcdn::workload;
namespace capture = ytcdn::capture;

namespace {

class GeneratorFixture : public ::testing::Test {
protected:
    GeneratorFixture()
        : cdn_(model_, {.replicate_top_ranks = 1000, .origin_replicas = 1}),
          sniffer_("T"),
          catalog_({.num_videos = 1000}, sim::Rng(5)) {
        dc_ = cdn_.add_data_center("Milan", geo::Continent::Europe, {45.46, 9.19},
                                   net::well_known_as::kGoogle,
                                   cdn::InfraClass::GoogleCdn);
        cdn_.add_prefix(dc_, net::Subnet{net::IpAddress::from_octets(173, 194, 0, 0), 24});
        cdn_.add_servers(dc_, 8, 1000);
        dc2_ = cdn_.add_data_center("Frankfurt", geo::Continent::Europe, {50.11, 8.68},
                                    net::well_known_as::kGoogle,
                                    cdn::InfraClass::GoogleCdn);
        cdn_.add_prefix(dc2_, net::Subnet{net::IpAddress::from_octets(173, 194, 1, 0), 24});
        cdn_.add_servers(dc2_, 8, 1000);

        const auto ldns = dns_.add_resolver(
            "r", std::make_unique<cdn::StaticPreferencePolicy>(
                     std::vector<cdn::DcId>{dc_, dc2_}));

        vp_.name = std::string(1, 'T');  // not `= "T"`: GCC 12 -Wrestrict false positive
        vp_.tech = workload::AccessTech::Ftth;
        vp_.pop_site = net::NetSite{1, {45.07, 7.69}, 0.0};
        vp_.subnets = {
            {"A", net::Subnet{net::IpAddress::from_octets(10, 0, 0, 0), 22}, 1.0, ldns}};
        vp_.mean_sessions_per_s = 0.05;
        vp_.profile = sim::DiurnalProfile::residential();
        sim::Rng rng(6);
        workload::populate_clients(vp_, 100, rng);

        player_ = std::make_unique<workload::Player>(simulator_, cdn_, dns_, sniffer_,
                                                     workload::Player::Config{},
                                                     sim::Rng(7));
    }

    net::RttModel model_;
    cdn::Cdn cdn_;
    cdn::DnsSystem dns_;
    capture::Sniffer sniffer_;
    cdn::VideoCatalog catalog_;
    sim::Simulator simulator_;
    workload::VantagePoint vp_;
    std::unique_ptr<workload::Player> player_;
    cdn::DcId dc_{}, dc2_{};
};

TEST_F(GeneratorFixture, GeneratesRoughlyExpectedVolume) {
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, {}, sim::Rng(8));
    gen.run(sim::kDay);
    simulator_.run_until(sim::kDay + sim::kHour);
    // 0.05/s x 86400 s = 4320 expected (day 0 is a weekday, mean multiplier 1).
    EXPECT_NEAR(static_cast<double>(gen.requests_generated()), 4320.0, 450.0);
    EXPECT_EQ(player_->stats().sessions, gen.requests_generated());
    EXPECT_GT(sniffer_.flows_classified(), gen.requests_generated());
}

TEST_F(GeneratorFixture, DiurnalShapeShowsInArrivals) {
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, {}, sim::Rng(9));
    gen.run(sim::kDay);
    simulator_.run_until(sim::kDay + sim::kHour);
    std::vector<int> hourly(25, 0);
    for (const auto& r : sniffer_.records()) {
        ++hourly[static_cast<std::size_t>(sim::hour_index(r.start))];
    }
    EXPECT_GT(hourly[21], 3 * std::max(1, hourly[4]));
}

TEST_F(GeneratorFixture, PromotedVideoDrawsExtraLoad) {
    catalog_.promote(0, 500);
    workload::RequestGenerator::Config cfg;
    cfg.p_promoted = 0.2;
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, cfg,
                                   sim::Rng(10));
    gen.run(sim::kDay);
    simulator_.run_until(sim::kDay + sim::kHour);

    const auto promoted_id = catalog_.by_rank(500).id;
    std::uint64_t promoted = 0, total = 0;
    for (const auto& r : sniffer_.records()) {
        ++total;
        if (r.video == promoted_id) ++promoted;
    }
    EXPECT_NEAR(static_cast<double>(promoted) / static_cast<double>(total), 0.2, 0.05);
}

TEST_F(GeneratorFixture, ResolutionMixFollowsWeights) {
    workload::RequestGenerator::Config cfg;
    cfg.resolution_weights = {0.0, 1.0, 0.0, 0.0, 0.0};  // all 360p
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, cfg,
                                   sim::Rng(11));
    gen.run(6 * sim::kHour);
    simulator_.run_until(7 * sim::kHour);
    for (const auto& r : sniffer_.records()) {
        EXPECT_EQ(r.resolution, cdn::Resolution::R360);
    }
}

TEST_F(GeneratorFixture, ZipfSkewsTowardLowRanks) {
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, {},
                                   sim::Rng(12));
    gen.run(2 * sim::kDay);
    simulator_.run_until(2 * sim::kDay + sim::kHour);
    std::uint64_t head = 0, total = 0;
    for (const auto& r : sniffer_.records()) {
        const cdn::Video* v = catalog_.find(r.video);
        ASSERT_NE(v, nullptr);
        ++total;
        if (v->rank < 100) ++head;
    }
    // Zipf(0.9) over 1000 ranks puts well over a third of mass on the top 100.
    EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.35);
}

TEST_F(GeneratorFixture, InvalidConfigThrows) {
    workload::VantagePoint empty = vp_;
    empty.clients.clear();
    EXPECT_THROW(workload::RequestGenerator(simulator_, empty, *player_, catalog_, {},
                                            sim::Rng(13)),
                 std::invalid_argument);
    workload::RequestGenerator::Config bad;
    bad.resolution_weights = {0, 0, 0, 0, 0};
    EXPECT_THROW(
        workload::RequestGenerator(simulator_, vp_, *player_, catalog_, bad,
                                   sim::Rng(14)),
        std::invalid_argument);
}

}  // namespace
