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

bool same_draws(const std::vector<workload::RequestDraw>& a,
                const std::vector<workload::RequestDraw>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].time != b[i].time || a[i].client != b[i].client ||
            a[i].rank != b[i].rank || a[i].resolution != b[i].resolution) {
            return false;
        }
    }
    return true;
}

TEST_F(GeneratorFixture, DrawsInBlocksAreTheDrawsOneByOne) {
    // Reference: the stream drawn one request at a time to a far horizon.
    const auto make = [this] {
        return workload::RequestDraws(vp_, catalog_, {}, sim::Rng(15), nullptr);
    };
    auto one = make();
    one.begin(0.0, 2 * sim::kDay);
    std::vector<workload::RequestDraw> all;
    while (one.fill(all, 1) == 1) {}
    ASSERT_GT(all.size(), 40u);

    // Horizons that end a block exactly at its boundary and mid-way: a
    // horizon at arrival k leaves exactly k draws, and a stream that has
    // reached its horizon draws nothing more, however often it is asked.
    for (const std::size_t block : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                                    std::size_t{16}}) {
        for (const std::size_t k : {block, 2 * block, 2 * block + 1, 3 * block - 1}) {
            if (k == 0 || k >= all.size()) continue;
            auto draws = make();
            draws.begin(0.0, all[k].time);
            std::vector<workload::RequestDraw> got;
            std::size_t calls = 0;
            while (!draws.exhausted()) {
                draws.fill(got, block);
                ASSERT_LT(++calls, all.size()) << block;
            }
            EXPECT_EQ(draws.fill(got, block), 0u);
            EXPECT_EQ(draws.fill(got, block), 0u);
            const std::vector<workload::RequestDraw> want(all.begin(),
                                                          all.begin() + static_cast<long>(k));
            EXPECT_TRUE(same_draws(got, want)) << "block " << block << " k " << k
                                               << " got " << got.size();
        }
    }
}

TEST_F(GeneratorFixture, RunLeavesDrawsTakenAheadAlone) {
    // A draw lane begins the stream and draws ahead before the event loop
    // calls run(): run() must schedule from the feed, not restart the
    // stream's clock, and the simulated day must be the one a generator
    // drawing for itself simulates.
    std::uint64_t serial = 0;
    {
        sim::Simulator simulator;
        capture::Sniffer sniffer("S");
        workload::Player player(simulator, cdn_, dns_, sniffer, workload::Player::Config{},
                                sim::Rng(7));
        workload::RequestGenerator gen(simulator, vp_, player, catalog_, {}, sim::Rng(16));
        gen.run(sim::kDay);
        simulator.run_until(sim::kDay + sim::kHour);
        serial = gen.requests_generated();
    }

    struct Ahead final : workload::RequestFeed {
        std::vector<std::vector<workload::RequestDraw>> blocks;
        std::size_t next = 0;
        const std::vector<workload::RequestDraw>* next_block() override {
            return next < blocks.size() ? &blocks[next++] : nullptr;
        }
    } feed;
    workload::RequestGenerator gen(simulator_, vp_, *player_, catalog_, {}, sim::Rng(16));
    gen.draws().begin(simulator_.now(), sim::kDay);
    EXPECT_THROW(gen.draws().begin(simulator_.now(), sim::kDay), std::logic_error);
    while (!gen.draws().exhausted()) {
        feed.blocks.emplace_back();
        gen.draws().fill(feed.blocks.back(), 5);
    }
    gen.set_feed(&feed);
    gen.run(sim::kDay);
    simulator_.run_until(sim::kDay + sim::kHour);
    EXPECT_EQ(gen.requests_generated(), serial);
    EXPECT_EQ(player_->stats().sessions, serial);

    workload::RequestGenerator other(simulator_, vp_, *player_, catalog_, {},
                                     sim::Rng(17));
    other.draws().begin(simulator_.now(), 2 * sim::kDay);
    EXPECT_THROW(other.run(3 * sim::kDay), std::invalid_argument);
}

}  // namespace
