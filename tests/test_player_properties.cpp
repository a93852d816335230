// Property sweeps over the Flash-player configuration space: whatever the
// behavioural knobs, the emulator must conserve flow accounting, never
// oversend a video, and keep every emitted flow classifiable.

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <string>

#include "analysis/session.hpp"
#include "capture/dataset.hpp"
#include "workload/player.hpp"

namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace geo = ytcdn::geo;
namespace sim = ytcdn::sim;
namespace workload = ytcdn::workload;
namespace capture = ytcdn::capture;

namespace {

struct SweepPoint {
    double p_probe;
    double p_abort;
    double p_pause;
    int max_redirects;
    const char* name;  // the case name, stable across builds
};

/// gtest prints the parameter beside each case's listed name; the default
/// dump of the struct's bytes would include its padding.
void PrintTo(const SweepPoint& p, std::ostream* os) {
    *os << p.p_probe << ' ' << p.p_abort << ' ' << p.p_pause << ' '
        << p.max_redirects;
}

class PlayerSweep : public ::testing::TestWithParam<SweepPoint> {
protected:
    PlayerSweep()
        : cdn_(model_, {.replicate_top_ranks = 20, .origin_replicas = 1}),
          sniffer_("T") {
        for (int d = 0; d < 3; ++d) {
            const geo::GeoPoint locs[] = {{45.46, 9.19}, {50.11, 8.68}, {48.86, 2.35}};
            const cdn::DcId dc = cdn_.add_data_center(
                "DC" + std::to_string(d), geo::Continent::Europe, locs[d],
                net::well_known_as::kGoogle, cdn::InfraClass::GoogleCdn);
            cdn_.add_prefix(dc, net::Subnet{net::IpAddress::from_octets(
                                                173, 194, static_cast<std::uint8_t>(d), 0),
                                            24});
            cdn_.add_servers(dc, 6, 3);
            dcs_.push_back(dc);
        }
        ldns_ = dns_.add_resolver(
            "r", std::make_unique<cdn::StaticPreferencePolicy>(dcs_));
        client_.id = 0;
        client_.ip = net::IpAddress::from_octets(10, 0, 0, 1);
        client_.ldns = ldns_;
        client_.site = net::NetSite{1, {45.07, 7.69}, 1.0};
        client_.downstream_bps = 8e6;
    }

    net::RttModel model_;
    cdn::Cdn cdn_;
    cdn::DnsSystem dns_;
    capture::Sniffer sniffer_;
    sim::Simulator simulator_;
    std::vector<cdn::DcId> dcs_;
    cdn::LdnsId ldns_{};
    workload::Client client_;
};

TEST_P(PlayerSweep, InvariantsHoldAcrossConfigSpace) {
    const SweepPoint point = GetParam();
    workload::Player::Config cfg;
    cfg.p_resolution_probe = point.p_probe;
    cfg.p_abort = point.p_abort;
    cfg.p_pause_resume = point.p_pause;
    cfg.max_redirects = point.max_redirects;
    workload::Player player(simulator_, cdn_, dns_, sniffer_, cfg, sim::Rng(1234));

    const int kSessions = 120;
    for (int i = 0; i < kSessions; ++i) {
        cdn::Video v;
        v.id = cdn::VideoId{0x9000ull + static_cast<std::uint64_t>(i % 40)};
        v.rank = static_cast<std::size_t>(i % 40);
        v.duration_s = 60.0 + (i % 5) * 30.0;
        player.start_session(client_, v, cdn::Resolution::R360);
        simulator_.run();
    }

    const auto& stats = player.stats();
    EXPECT_EQ(stats.sessions, static_cast<std::uint64_t>(kSessions));

    // 1. Flow accounting drains.
    for (std::size_t s = 0; s < cdn_.num_servers(); ++s) {
        EXPECT_EQ(cdn_.server(static_cast<cdn::ServerId>(s)).active_flows(), 0);
    }

    // 2. Emitted flows all classified; counts match player stats.
    EXPECT_EQ(sniffer_.flows_ignored(), 0u);
    EXPECT_EQ(sniffer_.flows_classified(), stats.video_flows + stats.control_flows);

    // 3. Per (video) total bytes never exceed what a full watch could
    //    produce across the sessions that requested it.
    std::map<cdn::VideoId, std::uint64_t> bytes_per_video;
    std::map<cdn::VideoId, int> sessions_per_video;
    for (const auto& r : sniffer_.records()) {
        if (ytcdn::analysis::classify_flow_size(r.bytes) ==
            ytcdn::analysis::FlowKind::Video) {
            bytes_per_video[r.video] += r.bytes;
        }
    }
    for (int i = 0; i < kSessions; ++i) {
        ++sessions_per_video[cdn::VideoId{0x9000ull + static_cast<std::uint64_t>(i % 40)}];
    }
    for (const auto& [video, bytes] : bytes_per_video) {
        cdn::Video v;
        v.duration_s = 60.0 + 4 * 30.0;  // upper bound on the sweep's durations
        const std::uint64_t cap =
            cdn::video_bytes(v, cdn::Resolution::R360) *
            static_cast<std::uint64_t>(sessions_per_video[video]);
        EXPECT_LE(bytes, cap + 1000) << video.to_string();
    }

    // 4. Every video flow's timestamps are sane.
    for (const auto& r : sniffer_.records()) {
        EXPECT_GE(r.end, r.start);
        EXPECT_LT(r.duration(), 4000.0);
    }

    // 5. Sessions never fail in a world where content always exists
    //    somewhere and redirects are allowed.
    if (point.max_redirects > 0) {
        EXPECT_EQ(stats.failures.total(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, PlayerSweep,
    ::testing::Values(SweepPoint{0.0, 0.0, 0.0, 4, "all_off"},
                      SweepPoint{1.0, 0.0, 0.0, 4, "probe_only"},
                      SweepPoint{0.0, 1.0, 0.0, 4, "abort_only"},
                      SweepPoint{0.0, 0.0, 1.0, 4, "pause_only"},
                      SweepPoint{0.5, 0.5, 0.5, 4, "half"},
                      SweepPoint{0.2, 0.8, 0.3, 1, "one_redirect"},
                      SweepPoint{0.18, 0.45, 0.055, 4, "defaults"},  // production
                      SweepPoint{1.0, 1.0, 1.0, 8, "all_on"}),
    [](const ::testing::TestParamInfo<SweepPoint>& case_info) {
        return std::string(case_info.param.name);
    });

}  // namespace
