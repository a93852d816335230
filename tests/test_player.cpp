#include "workload/player.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "capture/dataset.hpp"
#include "session_oracle.hpp"
#include "study/deployment.hpp"

namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace geo = ytcdn::geo;
namespace sim = ytcdn::sim;
namespace workload = ytcdn::workload;
namespace capture = ytcdn::capture;
namespace study = ytcdn::study;

namespace {

/// Two-DC world with a deterministic DNS mapping to the near DC.
class PlayerFixture : public ::testing::Test {
protected:
    PlayerFixture()
        : cdn_(model_, {.replicate_top_ranks = 10, .origin_replicas = 1}),
          sniffer_("T") {
        near_ = cdn_.add_data_center("Milan", geo::Continent::Europe, {45.46, 9.19},
                                     net::well_known_as::kGoogle,
                                     cdn::InfraClass::GoogleCdn);
        cdn_.add_prefix(near_, net::Subnet{net::IpAddress::from_octets(173, 194, 0, 0), 24});
        cdn_.add_servers(near_, 4, 2);
        far_ = cdn_.add_data_center("Frankfurt", geo::Continent::Europe, {50.11, 8.68},
                                    net::well_known_as::kGoogle,
                                    cdn::InfraClass::GoogleCdn);
        cdn_.add_prefix(far_, net::Subnet{net::IpAddress::from_octets(173, 194, 1, 0), 24});
        cdn_.add_servers(far_, 4, 2);

        ldns_ = dns_.add_resolver("r", std::make_unique<cdn::StaticPreferencePolicy>(
                                           std::vector<cdn::DcId>{near_, far_}));

        client_.id = 0;
        client_.ip = net::IpAddress::from_octets(10, 0, 0, 1);
        client_.ldns = ldns_;
        client_.site = net::NetSite{1, {45.07, 7.69}, 1.0};
        client_.downstream_bps = 8e6;
    }

    workload::Player make_player(const workload::Player::Config& cfg) {
        return workload::Player(simulator_, cdn_, dns_, sniffer_, cfg, sim::Rng(99));
    }

    cdn::Video video(std::size_t rank) {
        cdn::Video v;
        v.id = cdn::VideoId{0x5000ull + rank};
        v.rank = rank;
        v.duration_s = 120.0;
        return v;
    }

    /// Config with all randomness-driven behaviours off.
    static workload::Player::Config plain_config() {
        workload::Player::Config cfg;
        cfg.p_resolution_probe = 0.0;
        cfg.p_abort = 0.0;
        cfg.p_pause_resume = 0.0;
        return cfg;
    }

    net::RttModel model_;
    cdn::Cdn cdn_;
    cdn::DnsSystem dns_;
    capture::Sniffer sniffer_;
    sim::Simulator simulator_;
    cdn::DcId near_{}, far_{};
    cdn::LdnsId ldns_{};
    workload::Client client_;
};

TEST_F(PlayerFixture, SimpleSessionProducesOneVideoFlow) {
    auto player = make_player(plain_config());
    player.start_session(client_, video(0), cdn::Resolution::R360);
    simulator_.run();

    EXPECT_EQ(player.stats().sessions, 1u);
    EXPECT_EQ(player.stats().video_flows, 1u);
    EXPECT_EQ(player.stats().control_flows, 0u);
    ASSERT_EQ(sniffer_.records().size(), 1u);

    const auto& r = sniffer_.records().front();
    EXPECT_EQ(cdn_.dc_of_ip(r.server_ip), near_);
    EXPECT_EQ(r.video, video(0).id);
    EXPECT_EQ(r.resolution, cdn::Resolution::R360);
    // Full watch of 120 s at 550 kbps.
    EXPECT_NEAR(static_cast<double>(r.bytes), 550e3 * 120 / 8, 2.0);
    EXPECT_GT(r.duration(), 0.0);
}

TEST_F(PlayerFixture, FlowAccountingBalances) {
    auto player = make_player(plain_config());
    for (int i = 0; i < 10; ++i) {
        player.start_session(client_, video(static_cast<std::size_t>(i % 3)),
                             cdn::Resolution::R360);
    }
    simulator_.run();
    for (std::size_t s = 0; s < cdn_.num_servers(); ++s) {
        EXPECT_EQ(cdn_.server(static_cast<cdn::ServerId>(s)).active_flows(), 0);
    }
}

TEST_F(PlayerFixture, CacheMissRedirectsToOriginThenPullsBack) {
    auto player = make_player(plain_config());
    // Find an unpopular video whose single origin is the far DC.
    cdn::Video v = video(100);
    for (std::size_t r = 100; r < 200; ++r) {
        v = video(r);
        if (cdn_.is_origin(far_, v.id) && !cdn_.is_origin(near_, v.id)) break;
    }
    ASSERT_TRUE(cdn_.is_origin(far_, v.id));

    player.start_session(client_, v, cdn::Resolution::R360);
    simulator_.run();

    // First access: control flow at near DC (miss) + video flow from far DC.
    EXPECT_EQ(player.stats().redirects_miss, 1u);
    ASSERT_EQ(sniffer_.records().size(), 2u);
    capture::Dataset ds;
    ds.records = sniffer_.records();
    ds.sort_by_time();
    EXPECT_LT(ds.records[0].bytes, 1000u);  // control
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[0].server_ip), near_);
    EXPECT_GT(ds.records[1].bytes, 1000u);  // video
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[1].server_ip), far_);

    // Second access: served locally (the miss pulled the content).
    player.start_session(client_, v, cdn::Resolution::R360);
    simulator_.run();
    ds.records = sniffer_.records();
    ds.sort_by_time();
    ASSERT_EQ(ds.records.size(), 3u);
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[2].server_ip), near_);
}

TEST_F(PlayerFixture, OverloadRedirectsToOtherDc) {
    auto player = make_player(plain_config());
    const cdn::Video v = video(1);  // replicated everywhere
    const auto affinity = cdn_.pick_server(near_, v.id);
    cdn_.begin_flow(affinity);
    cdn_.begin_flow(affinity);  // saturate (capacity 2)

    player.start_session(client_, v, cdn::Resolution::R360);
    simulator_.run();

    EXPECT_EQ(player.stats().redirects_overload, 1u);
    capture::Dataset ds;
    ds.records = sniffer_.records();
    ds.sort_by_time();
    ASSERT_EQ(ds.records.size(), 2u);
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[1].server_ip), far_);
    cdn_.end_flow(affinity);
    cdn_.end_flow(affinity);
}

TEST_F(PlayerFixture, ResolutionProbeMakesTwoFlowSameDcSession) {
    auto cfg = plain_config();
    cfg.p_resolution_probe = 1.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(2), cdn::Resolution::R720);
    simulator_.run();

    EXPECT_EQ(player.stats().resolution_probes, 1u);
    capture::Dataset ds;
    ds.name = "T";
    ds.records = sniffer_.records();
    ds.sort_by_time();
    ASSERT_EQ(ds.records.size(), 2u);
    EXPECT_LT(ds.records[0].bytes, 1000u);
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[0].server_ip), near_);
    EXPECT_EQ(cdn_.dc_of_ip(ds.records[1].server_ip), near_);
    // Downgraded to 360p.
    EXPECT_EQ(ds.records[1].resolution, cdn::Resolution::R360);

    // With T=1 s the two flows group into one session (redirect think < 1 s).
    const auto sessions = ytcdn::oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(sessions.num_sessions(), 1u);
    EXPECT_EQ(sessions.flows_of(0).size(), 2u);
}

TEST_F(PlayerFixture, PauseResumeSplitsDownload) {
    auto cfg = plain_config();
    cfg.p_pause_resume = 1.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(3), cdn::Resolution::R360);
    simulator_.run();

    EXPECT_EQ(player.stats().pauses, 1u);
    capture::Dataset ds;
    ds.records = sniffer_.records();
    ds.sort_by_time();
    ASSERT_EQ(ds.records.size(), 2u);
    // The two video flows carry the whole video between them.
    const double total = static_cast<double>(ds.records[0].bytes + ds.records[1].bytes);
    EXPECT_NEAR(total, 550e3 * 120 / 8, 4.0);
    // Viewer gap: separate sessions at T=1 s, one session at T=300 s.
    EXPECT_EQ(ytcdn::oracle::SessionTable::build(ds, 1.0).num_sessions(), 2u);
    EXPECT_EQ(ytcdn::oracle::SessionTable::build(ds, 300.0).num_sessions(), 1u);
}

TEST_F(PlayerFixture, AbortShortensDownload) {
    auto cfg = plain_config();
    cfg.p_abort = 1.0;
    cfg.min_watch_frac = 0.2;
    cfg.max_abort_watch_frac = 0.2;  // pin the watched fraction
    auto player = make_player(cfg);
    player.start_session(client_, video(4), cdn::Resolution::R360);
    simulator_.run();
    ASSERT_EQ(sniffer_.records().size(), 1u);
    EXPECT_NEAR(static_cast<double>(sniffer_.records()[0].bytes), 0.2 * 550e3 * 120 / 8,
                2.0);
}

TEST_F(PlayerFixture, LegacyServersDegradeUnlessFullQuality) {
    // Point the resolver at a legacy pool.
    const auto legacy = cdn_.add_data_center("Amsterdam", geo::Continent::Europe,
                                             {52.37, 4.90},
                                             net::well_known_as::kYouTubeEu,
                                             cdn::InfraClass::LegacyYouTube);
    cdn_.add_prefix(legacy, net::Subnet{net::IpAddress::from_octets(212, 187, 0, 0), 24});
    cdn_.add_servers(legacy, 4, 1000);
    const auto legacy_ldns = dns_.add_resolver(
        "legacy", std::make_unique<cdn::StaticPreferencePolicy>(
                      std::vector<cdn::DcId>{legacy}));
    workload::Client client = client_;
    client.ldns = legacy_ldns;

    {
        auto player = make_player(plain_config());
        player.start_session(client, video(0), cdn::Resolution::R720);
        simulator_.run();
        ASSERT_EQ(sniffer_.records().size(), 1u);
        // Degraded to the legacy 240p encode, partial watch.
        EXPECT_EQ(sniffer_.records()[0].resolution, cdn::Resolution::R240);
    }
    {
        auto cfg = plain_config();
        cfg.legacy_full_quality = true;
        auto player = make_player(cfg);
        player.start_session(client, video(1), cdn::Resolution::R720);
        simulator_.run();
        ASSERT_EQ(sniffer_.records().size(), 2u);
        // EU2-style legacy configuration: the requested stream, in full.
        EXPECT_EQ(sniffer_.records()[1].resolution, cdn::Resolution::R720);
        EXPECT_NEAR(static_cast<double>(sniffer_.records()[1].bytes),
                    2200e3 * 120 / 8, 3.0);
    }
}

TEST_F(PlayerFixture, DnsTtlCachesAnswers) {
    auto cfg = plain_config();
    cfg.dns_ttl_s = 300.0;
    auto player = make_player(cfg);
    // Three sessions within the TTL window: one resolution, two cache hits.
    for (int i = 0; i < 3; ++i) {
        player.start_session(client_, video(static_cast<std::size_t>(i)),
                             cdn::Resolution::R360);
        simulator_.run();
    }
    EXPECT_EQ(player.stats().dns_cache_hits, 2u);
    EXPECT_EQ(dns_.total_resolutions(), 1u);
}

TEST_F(PlayerFixture, DnsTtlExpires) {
    auto cfg = plain_config();
    cfg.dns_ttl_s = 10.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(0), cdn::Resolution::R360);
    simulator_.run();
    // Advance past the TTL, then start another session.
    simulator_.schedule_at(1000.0, [&] {
        player.start_session(client_, video(1), cdn::Resolution::R360);
    });
    simulator_.run();
    EXPECT_EQ(player.stats().dns_cache_hits, 0u);
    EXPECT_EQ(dns_.total_resolutions(), 2u);
}

TEST_F(PlayerFixture, DnsTtlZeroAlwaysResolves) {
    auto player = make_player(plain_config());
    for (int i = 0; i < 4; ++i) {
        player.start_session(client_, video(0), cdn::Resolution::R360);
        simulator_.run();
    }
    EXPECT_EQ(player.stats().dns_cache_hits, 0u);
    EXPECT_EQ(dns_.total_resolutions(), 4u);
}

// --- fault tolerance -----------------------------------------------------

TEST_F(PlayerFixture, DarkDcFailsOverToNextRanked) {
    cdn_.set_dc_health(near_, cdn::HealthState::Down);
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    EXPECT_EQ(stats.connect_timeouts, 1u);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.failures.total(), 0u);  // the session survived
    EXPECT_EQ(stats.video_flows, 1u);
    ASSERT_EQ(sniffer_.records().size(), 1u);
    EXPECT_EQ(cdn_.dc_of_ip(sniffer_.records()[0].server_ip), far_);
    // One retry, recorded in the histogram.
    ASSERT_EQ(stats.retry_histogram.size(), 2u);
    EXPECT_EQ(stats.retry_histogram[0], 0u);
    EXPECT_EQ(stats.retry_histogram[1], 1u);
}

TEST_F(PlayerFixture, AllDcsDarkEndsInTimeoutBucket) {
    cdn_.set_dc_health(near_, cdn::HealthState::Down);
    cdn_.set_dc_health(far_, cdn::HealthState::Down);
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    EXPECT_EQ(stats.video_flows, 0u);
    EXPECT_EQ(stats.connect_timeouts, 1u);
    EXPECT_EQ(stats.failovers, 0u);
    // Exactly one terminal bucket.
    EXPECT_EQ(stats.failures.timeout, 1u);
    EXPECT_EQ(stats.failures.total(), 1u);
}

TEST_F(PlayerFixture, DrainingDcRefusesNewSessionsAndFailsOver) {
    cdn_.set_dc_health(near_, cdn::HealthState::Draining);
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    EXPECT_EQ(stats.connect_resets, 1u);
    EXPECT_EQ(stats.connect_timeouts, 0u);
    EXPECT_EQ(stats.failovers, 1u);
    EXPECT_EQ(stats.failures.total(), 0u);
    ASSERT_EQ(sniffer_.records().size(), 1u);
    EXPECT_EQ(cdn_.dc_of_ip(sniffer_.records()[0].server_ip), far_);
}

TEST_F(PlayerFixture, RedirectExhaustionCountsExactlyOneBucket) {
    auto cfg = plain_config();
    cfg.max_redirects = 0;  // no chain allowed
    auto player = make_player(cfg);
    const cdn::Video v = video(1);
    const auto affinity = cdn_.pick_server(near_, v.id);
    cdn_.begin_flow(affinity);
    cdn_.begin_flow(affinity);  // saturate (capacity 2): overload redirect due

    player.start_session(client_, v, cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    EXPECT_EQ(stats.failures.redirect_exhausted, 1u);
    EXPECT_EQ(stats.failures.total(), 1u);
    // The overloaded server still serves (the real system always eventually
    // does) — failure accounting and delivery are separate.
    EXPECT_EQ(stats.video_flows, 1u);
    cdn_.end_flow(affinity);
    cdn_.end_flow(affinity);
}

TEST_F(PlayerFixture, DnsServfailRetriesThenSucceedsAfterRecovery) {
    dns_.set_resolver_up(ldns_, false);
    // Recover the resolver before the retry budget (2 retries, 1 s apart).
    simulator_.schedule_at(1.5, [&] { dns_.set_resolver_up(ldns_, true); });
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    EXPECT_GE(stats.dns_servfails, 1u);
    EXPECT_EQ(stats.failures.dns_failure, 0u);
    EXPECT_EQ(stats.failures.total(), 0u);
    EXPECT_EQ(stats.video_flows, 1u);
}

TEST_F(PlayerFixture, DnsServfailExhaustsIntoDnsBucket) {
    dns_.set_resolver_up(ldns_, false);
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();

    const auto& stats = player.stats();
    // Initial query + dns_retry_limit retries, all SERVFAIL.
    EXPECT_EQ(stats.dns_servfails, 3u);
    EXPECT_EQ(stats.failures.dns_failure, 1u);
    EXPECT_EQ(stats.failures.total(), 1u);
    EXPECT_EQ(stats.video_flows, 0u);
    EXPECT_EQ(dns_.servfail_count(ldns_), 3u);
}

TEST_F(PlayerFixture, StaleResolverAnswersAreCounted) {
    auto player = make_player(plain_config());
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();
    dns_.set_resolver_stale(ldns_, true);
    player.start_session(client_, video(2), cdn::Resolution::R360);
    simulator_.run();

    EXPECT_EQ(player.stats().stale_dns_answers, 1u);
    EXPECT_EQ(dns_.stale_answer_count(ldns_), 1u);
    EXPECT_EQ(player.stats().video_flows, 2u);
}

TEST_F(PlayerFixture, DnsCacheInvalidationByDc) {
    auto cfg = plain_config();
    cfg.dns_ttl_s = 300.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();
    ASSERT_EQ(player.dns_cache_size(), 1u);

    // Invalidation is targeted: dropping the other DC's entries is a no-op.
    player.invalidate_dns_cache(far_);
    EXPECT_EQ(player.dns_cache_size(), 1u);
    player.invalidate_dns_cache(near_);
    EXPECT_EQ(player.dns_cache_size(), 0u);
}

TEST_F(PlayerFixture, DnsCacheEvictsExpiredEntriesOnLookup) {
    auto cfg = plain_config();
    cfg.dns_ttl_s = 10.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();
    ASSERT_EQ(player.dns_cache_size(), 1u);

    // Past the TTL with the resolver down: the lookup evicts the expired
    // entry and the re-resolution fails, so nothing is re-inserted — the
    // cache no longer leaks dead entries.
    dns_.set_resolver_up(ldns_, false);
    simulator_.schedule_at(1000.0, [&] {
        player.start_session(client_, video(2), cdn::Resolution::R360);
    });
    simulator_.run();
    EXPECT_EQ(player.dns_cache_size(), 0u);
    EXPECT_EQ(player.stats().dns_cache_hits, 0u);
}

TEST_F(PlayerFixture, ConnectFailureDropsTheStaleCacheEntry) {
    auto cfg = plain_config();
    cfg.dns_ttl_s = 3600.0;
    auto player = make_player(cfg);
    player.start_session(client_, video(1), cdn::Resolution::R360);
    simulator_.run();
    ASSERT_EQ(player.dns_cache_size(), 1u);

    // The cached mapping points at near_; when near_ goes dark the failed
    // connect drops it, so the next session re-resolves.
    cdn_.set_dc_health(near_, cdn::HealthState::Down);
    player.start_session(client_, video(2), cdn::Resolution::R360);
    simulator_.run();
    EXPECT_EQ(player.stats().failovers, 1u);
    EXPECT_EQ(player.stats().dns_cache_hits, 1u);  // only the doomed hit
}

TEST_F(PlayerFixture, FaultRunsAreByteIdenticalAcrossSameSeedRuns) {
    // Two identical worlds, identical seeds, identical mid-run fault: the
    // observed flows must match byte for byte.
    auto run_once = [this](capture::Sniffer& sniffer,
                           std::vector<capture::FlowRecord>& out) {
        sim::Simulator simulator;
        workload::Player player(simulator, cdn_, dns_, sniffer, plain_config(),
                                sim::Rng(1234));
        cdn_.set_dc_health(near_, cdn::HealthState::Up);
        for (int i = 0; i < 5; ++i) {
            const double at = 10.0 * i;
            const auto v = video(static_cast<std::size_t>(i) % 3);
            simulator.schedule_at(at, [&player, this, v] {
                player.start_session(client_, v, cdn::Resolution::R360);
            });
        }
        simulator.schedule_at(25.0, [this] {
            cdn_.set_dc_health(near_, cdn::HealthState::Down);
        });
        simulator.run();
        out = sniffer.records();
    };

    capture::Sniffer s1("A"), s2("B");
    std::vector<capture::FlowRecord> a, b;
    run_once(s1, a);
    run_once(s2, b);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].server_ip, b[i].server_ip) << i;
        EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
        EXPECT_DOUBLE_EQ(a[i].start, b[i].start) << i;
        EXPECT_DOUBLE_EQ(a[i].end, b[i].end) << i;
    }
}

TEST_F(PlayerFixture, DpiPayloadIsRealHttp) {
    auto player = make_player(plain_config());
    player.start_session(client_, video(5), cdn::Resolution::R480);
    simulator_.run();
    // The sniffer only classified it because the payload parsed as a real
    // /videoplayback request; double-check itag round-trip.
    ASSERT_EQ(sniffer_.records().size(), 1u);
    EXPECT_EQ(sniffer_.records()[0].resolution, cdn::Resolution::R480);
}

/// Every vantage point's sampled clients against every data center: the
/// player's flow RTT, whose path term it keeps per data center, must be
/// base_rtt_ms / 1000 bit for bit. The pinned inflation pairs (each PoP to
/// its preferred data center, US-Campus's inflated neighbours, EU2's
/// overflow target and, with the Feb-2011 shift, Mountain View) are among
/// the pairs. The clients of all vantage points also go through one
/// player, which must start its table over for each new site.
void expect_flow_rtt_is_base_rtt(const study::StudyConfig& cfg) {
    study::StudyDeployment dep(cfg);
    const auto& cdn_ref = dep.cdn();
    const auto& model = dep.rtt();
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    sim::Simulator simulator;
    capture::Sniffer mixed_sniffer("ALL");
    workload::Player mixed(simulator, dep.cdn(), dep.dns(), mixed_sniffer, {},
                           sim::Rng(7));
    std::size_t pairs = 0;
    for (std::size_t v = 0; v < dep.num_vantage_points(); ++v) {
        const auto& vp = dep.vantage(v);
        capture::Sniffer sniffer(vp.name);
        workload::Player player(simulator, dep.cdn(), dep.dns(), sniffer, {}, sim::Rng(v));
        ASSERT_FALSE(vp.clients.empty()) << vp.name;
        const std::size_t stride = std::max<std::size_t>(1, vp.clients.size() / 6);
        for (std::size_t c = 0; c < vp.clients.size(); c += stride) {
            const auto& client = vp.clients[c];
            for (const auto& dc : cdn_ref.data_centers()) {
                if (dc.servers.empty()) continue;
                const double want = model.base_rtt_ms(client.site, dc.site) / 1000.0;
                const cdn::ServerId server = dc.servers[c % dc.servers.size()];
                EXPECT_EQ(bits(player.flow_rtt_s(client, server)), bits(want))
                    << vp.name << " client " << c << " -> " << dc.city;
                EXPECT_EQ(bits(mixed.flow_rtt_s(client, server)), bits(want))
                    << vp.name << " client " << c << " -> " << dc.city;
                ++pairs;
            }
        }
    }
    EXPECT_GT(pairs, 100u);
}

TEST(PlayerFlowRtt, MatchesBaseRttForEveryVantagePointAndDataCenter) {
    study::StudyConfig cfg;
    cfg.scale = 0.01;
    // The pins the oracle must cover are in force.
    {
        const study::StudyDeployment dep(cfg);
        const auto& us = dep.vantage(0);
        EXPECT_EQ(dep.rtt().inflation(us.pop_site.id,
                                      dep.cdn().dc(dep.dc_by_city("Chicago")).site.id),
                  14.0);
    }
    expect_flow_rtt_is_base_rtt(cfg);
    cfg.feb2011_us_shift = true;
    expect_flow_rtt_is_base_rtt(cfg);
}

}  // namespace
