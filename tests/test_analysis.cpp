#include <gtest/gtest.h>

#include <sstream>

#include "analysis/as_analysis.hpp"
#include "analysis/dc_map.hpp"
#include "analysis/geo_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "sim/time.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;
namespace geo = ytcdn::geo;
namespace sim = ytcdn::sim;

namespace {

/// Synthetic two-DC world: DC0 "Milan" (preferred, 10 ms), DC1 "Frankfurt"
/// (30 ms). Client subnets 10.0.0.0/24 ("A") and 10.0.1.0/24 ("B").
class AnalysisFixture : public ::testing::Test {
protected:
    AnalysisFixture() {
        milan_ = map_.add_data_center(
            {"Milan", {45.46, 9.19}, geo::Continent::Europe, 10.0, 125.0});
        frankfurt_ = map_.add_data_center(
            {"Frankfurt", {50.11, 8.68}, geo::Continent::Europe, 30.0, 550.0});
        map_.assign(server(0, 0), milan_);
        map_.assign(server(1, 0), frankfurt_);
        ds_.name = "T";
    }

    static net::IpAddress server(int dc, std::uint8_t host) {
        return net::IpAddress::from_octets(173, 194, static_cast<std::uint8_t>(dc),
                                           host == 0 ? 1 : host);
    }
    static net::IpAddress client(int subnet, std::uint8_t host) {
        return net::IpAddress::from_octets(10, 0, static_cast<std::uint8_t>(subnet),
                                           host);
    }

    /// Adds a video flow of `bytes` at time t to the given DC's server.
    void add_flow(int dc, double t, std::uint64_t bytes = 10'000,
                  std::uint64_t video = 1, int subnet = 0, std::uint8_t chost = 1,
                  std::uint8_t shost = 1) {
        capture::FlowRecord r;
        r.client_ip = client(subnet, chost);
        r.server_ip = server(dc, shost);
        r.video = cdn::VideoId{video};
        r.start = t;
        r.end = t + 10.0;
        r.bytes = bytes;
        ds_.records.push_back(r);
    }

    /// ds_'s hourly (all, preferred) tallies under map_ (Figs 9, 11).
    [[nodiscard]] analysis::IncrementalHourlyLoad hourly() const {
        return analysis::fold_records(ds_, map_,
                                      analysis::IncrementalHourlyLoad(milan_, ds_.name));
    }
    /// ds_'s per-video non-preferred downloads under map_ (Figs 13, 14).
    [[nodiscard]] analysis::IncrementalVideoRedirects redirects() const {
        return analysis::fold_records(ds_, map_,
                                      analysis::IncrementalVideoRedirects(milan_));
    }
    /// ds_'s per-server load at Milan (Fig. 15).
    [[nodiscard]] analysis::ServerLoadSeries server_load() const {
        return analysis::fold_records(ds_, map_,
                                      analysis::IncrementalServerLoad(milan_, ds_.name))
            .series();
    }
    /// Fig. 12's breakdown of ds_ under map_.
    [[nodiscard]] std::vector<analysis::SubnetShare> subnet_shares(
        std::vector<analysis::NamedSubnet> subnets) const {
        analysis::IncrementalSubnetBreakdown fold(milan_, std::move(subnets));
        return analysis::fold_records(ds_, map_, std::move(fold)).shares();
    }
    /// ds_'s sessions at T = 1 s, folded (Figs 5, 6, 10 and 16).
    [[nodiscard]] analysis::SessionFold sessions() const {
        auto fold = analysis::fold_records(ds_, map_, analysis::SessionFold(milan_));
        fold.finish();
        return fold;
    }

    /// Figs 14/16's second pass over ds_, following `video`.
    [[nodiscard]] analysis::IncrementalVideoLoad video_load(std::uint64_t video) const {
        analysis::IncrementalVideoLoad load(milan_, {cdn::VideoId{video}});
        for (const auto& r : ds_.records) load.add(r, map_);
        return load;
    }

    analysis::ServerDcMap map_;
    capture::Dataset ds_;
    int milan_{}, frankfurt_{};
};

TEST_F(AnalysisFixture, DcMapLookups) {
    EXPECT_EQ(map_.num_data_centers(), 2u);
    EXPECT_EQ(map_.dc_of(server(0, 42)), milan_);  // same /24
    EXPECT_EQ(map_.dc_of(net::IpAddress::from_octets(9, 9, 9, 9)), -1);
    EXPECT_EQ(map_.info(milan_).name, "Milan");
    EXPECT_THROW((void)map_.info(7), std::out_of_range);
    EXPECT_THROW(map_.assign(server(0, 1), 7), std::out_of_range);
}

TEST_F(AnalysisFixture, DcMapSerializationRoundTrips) {
    std::stringstream ss;
    analysis::write_dc_map(ss, map_);
    const auto back = analysis::read_dc_map(ss);
    ASSERT_EQ(back.num_data_centers(), map_.num_data_centers());
    for (std::size_t i = 0; i < map_.num_data_centers(); ++i) {
        const auto& a = map_.info(static_cast<int>(i));
        const auto& b = back.info(static_cast<int>(i));
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.continent, b.continent);
        EXPECT_NEAR(a.rtt_ms, b.rtt_ms, 1e-3);
        EXPECT_NEAR(a.distance_km, b.distance_km, 1e-2);
        EXPECT_NEAR(a.location.lat_deg, b.location.lat_deg, 1e-5);
    }
    EXPECT_EQ(back.dc_of(server(0, 77)), milan_);
    EXPECT_EQ(back.dc_of(server(1, 77)), frankfurt_);
    EXPECT_EQ(back.dc_of(net::IpAddress::from_octets(9, 9, 9, 9)), -1);
}

TEST_F(AnalysisFixture, DcMapDeserializationRejectsMalformed) {
    const auto expect_throw = [](const std::string& text) {
        std::stringstream ss(text);
        EXPECT_THROW((void)analysis::read_dc_map(ss), std::runtime_error) << text;
    };
    expect_throw("bogus\trow\n");
    expect_throw("dc\t0\tMilan\tnotanumber\t9.19\tEurope\t10\t125\n");
    expect_throw("dc\t0\tMilan\t45.46\t9.19\tAtlantis\t10\t125\n");
    expect_throw("dc\t1\tMilan\t45.46\t9.19\tEurope\t10\t125\n");  // out of order
    expect_throw("assign\t1.2.3.0\t0\n");                          // no dc rows yet
    expect_throw(
        "dc\t0\tMilan\t45.46\t9.19\tEurope\t10\t125\nassign\tnot.an.ip\t0\n");
    expect_throw("dc\t0\tMilan\t45.46\t9.19\tEurope\t10\t125\nassign\t1.2.3.0\t7\n");
}

TEST_F(AnalysisFixture, TrafficByDcSortsByBytes) {
    add_flow(0, 0.0, 100'000);
    add_flow(1, 1.0, 5'000);
    add_flow(0, 2.0, 50'000);
    const auto traffic = analysis::traffic_by_dc(ds_, map_);
    ASSERT_EQ(traffic.size(), 2u);
    EXPECT_EQ(traffic[0].dc, milan_);
    EXPECT_EQ(traffic[0].bytes, 150'000u);
    EXPECT_EQ(traffic[0].video_flows, 2u);
}

TEST_F(AnalysisFixture, PreferredDcIsByteMaximizer) {
    for (int i = 0; i < 9; ++i) add_flow(0, i);
    add_flow(1, 20.0);
    EXPECT_EQ(analysis::preferred_dc(ds_, map_), milan_);
}

TEST_F(AnalysisFixture, PreferredDcBreaksHeavySplitByRtt) {
    // EU2-style split: Frankfurt carries slightly more bytes, but Milan is a
    // heavy hitter with lower RTT -> preferred.
    for (int i = 0; i < 45; ++i) add_flow(0, i);
    for (int i = 0; i < 55; ++i) add_flow(1, 100.0 + i);
    EXPECT_EQ(analysis::preferred_dc(ds_, map_, 0.2), milan_);
    // With an absurd heavy threshold only the top DC qualifies.
    EXPECT_EQ(analysis::preferred_dc(ds_, map_, 0.9), frankfurt_);
}

TEST_F(AnalysisFixture, NonPreferredShare) {
    for (int i = 0; i < 8; ++i) add_flow(0, i);
    for (int i = 0; i < 2; ++i) add_flow(1, 50.0 + i);
    const auto share = analysis::non_preferred_share(ds_, map_, milan_);
    EXPECT_NEAR(share.flow_fraction, 0.2, 1e-9);
    EXPECT_NEAR(share.byte_fraction, 0.2, 1e-9);
}

TEST_F(AnalysisFixture, FlowsPerSessionCdf) {
    add_flow(0, 0.0, 10'000, /*video=*/1);
    add_flow(0, 100.0, 10'000, /*video=*/2);
    add_flow(0, 110.05, 10'000, /*video=*/2);  // same session (gap < 1 after end)
    const auto folded = sessions();
    ASSERT_EQ(folded.num_sessions(), 2u);
    const auto cdf = folded.flows_cdf();
    ASSERT_EQ(cdf.size(), 10u);
    EXPECT_DOUBLE_EQ(cdf[0], 0.5);  // one of two sessions single-flow
    EXPECT_DOUBLE_EQ(cdf[1], 1.0);
    EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
}

TEST_F(AnalysisFixture, SessionPatternBreakdown) {
    // Session 1: single flow to preferred.
    add_flow(0, 0.0, 10'000, 1);
    // Session 2: single flow to non-preferred.
    add_flow(1, 100.0, 10'000, 2);
    // Session 3: control to preferred then video to non-preferred (redirect).
    add_flow(0, 200.0, 500, 3);
    add_flow(1, 210.2, 10'000, 3);
    // Session 4: both preferred.
    add_flow(0, 300.0, 500, 4);
    add_flow(0, 310.2, 10'000, 4);

    const auto folded = sessions();
    ASSERT_EQ(folded.num_sessions(), 4u);
    const auto p = folded.patterns();
    EXPECT_EQ(p.total_sessions, 4u);
    EXPECT_DOUBLE_EQ(p.single_flow, 0.5);
    EXPECT_DOUBLE_EQ(p.single_preferred, 0.25);
    EXPECT_DOUBLE_EQ(p.single_non_preferred, 0.25);
    EXPECT_DOUBLE_EQ(p.two_flow, 0.5);
    EXPECT_DOUBLE_EQ(p.two_pref_nonpref, 0.25);
    EXPECT_DOUBLE_EQ(p.two_pref_pref, 0.25);
    EXPECT_DOUBLE_EQ(p.more_flows, 0.0);
}

TEST_F(AnalysisFixture, SessionPatternsExcludeOutOfScope) {
    add_flow(0, 0.0, 10'000, 1);
    capture::FlowRecord legacy;
    legacy.client_ip = client(0, 1);
    legacy.server_ip = net::IpAddress::from_octets(212, 187, 0, 1);  // unmapped
    legacy.video = cdn::VideoId{9};
    legacy.start = 50.0;
    legacy.end = 60.0;
    legacy.bytes = 10'000;
    ds_.records.push_back(legacy);

    const auto p = sessions().patterns();
    EXPECT_EQ(p.total_sessions, 1u);  // legacy session dropped
}

TEST_F(AnalysisFixture, MultiFlowPatterns) {
    // Session 1 (3 flows, all preferred).
    add_flow(0, 0.0, 500, 1);
    add_flow(0, 10.2, 500, 1);
    add_flow(0, 20.4, 10'000, 1);
    // Session 2 (3 flows, first preferred then redirected away).
    add_flow(0, 100.0, 500, 2);
    add_flow(1, 110.2, 500, 2);
    add_flow(1, 120.4, 10'000, 2);
    // Session 3 (3 flows, DNS sent it away from the start).
    add_flow(1, 200.0, 500, 3);
    add_flow(1, 210.2, 500, 3);
    add_flow(1, 220.4, 10'000, 3);
    // Session 4 (single flow, to keep share_of_all_sessions meaningful).
    add_flow(0, 300.0, 10'000, 4);

    const auto folded = sessions();
    ASSERT_EQ(folded.num_sessions(), 4u);
    const auto m = folded.multi_flow();
    EXPECT_EQ(m.sessions, 3u);
    EXPECT_DOUBLE_EQ(m.share_of_all_sessions, 0.75);
    EXPECT_NEAR(m.all_preferred, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(m.first_preferred_then_other, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(m.first_non_preferred, 1.0 / 3.0, 1e-9);
}

TEST_F(AnalysisFixture, MultiFlowPatternsEmpty) {
    add_flow(0, 0.0, 10'000, 1);
    const auto m = sessions().multi_flow();
    EXPECT_EQ(m.sessions, 0u);
    EXPECT_DOUBLE_EQ(m.share_of_all_sessions, 0.0);
}

TEST_F(AnalysisFixture, SubnetBreakdownFindsBiasedSubnet) {
    // Subnet A: 90 preferred flows. Subnet B: 10 flows, all non-preferred
    // (the Net-3 pattern).
    for (int i = 0; i < 90; ++i) add_flow(0, i, 10'000, 1, /*subnet=*/0);
    for (int i = 0; i < 10; ++i) add_flow(1, 200.0 + i, 10'000, 2, /*subnet=*/1);

    const std::vector<analysis::NamedSubnet> subnets{
        {"A", net::Subnet{client(0, 0), 24}},
        {"B", net::Subnet{client(1, 0), 24}},
    };
    const auto shares = subnet_shares(subnets);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_NEAR(shares[0].all_flows_share, 0.9, 1e-9);
    EXPECT_NEAR(shares[0].non_preferred_share, 0.0, 1e-9);
    EXPECT_NEAR(shares[1].all_flows_share, 0.1, 1e-9);
    EXPECT_NEAR(shares[1].non_preferred_share, 1.0, 1e-9);
}

TEST_F(AnalysisFixture, HourlyNonPreferredFraction) {
    // Hour 0: all preferred. Hour 1: half non-preferred.
    for (int i = 0; i < 4; ++i) add_flow(0, 60.0 * i);
    for (int i = 0; i < 2; ++i) add_flow(0, sim::kHour + 60.0 * i);
    for (int i = 0; i < 2; ++i) add_flow(1, sim::kHour + 1000.0 + 60.0 * i);

    const auto cdf = hourly().non_preferred_cdf();
    ASSERT_EQ(cdf.size(), 2u);
    EXPECT_DOUBLE_EQ(cdf.min(), 0.0);
    EXPECT_DOUBLE_EQ(cdf.max(), 0.5);
}

TEST_F(AnalysisFixture, HourlyPreferredSeries) {
    for (int i = 0; i < 3; ++i) add_flow(0, 60.0 * i);
    add_flow(1, sim::kHour + 5.0);
    const auto series = hourly().preferred_series();
    ASSERT_EQ(series.flows_per_hour.points.size(), 2u);
    EXPECT_DOUBLE_EQ(series.flows_per_hour.points[0].second, 3.0);
    EXPECT_DOUBLE_EQ(series.fraction_preferred.points[0].second, 1.0);
    EXPECT_DOUBLE_EQ(series.fraction_preferred.points[1].second, 0.0);
}

TEST_F(AnalysisFixture, VideoNonPreferredCountsCdf) {
    // Video 1: redirected once. Video 2: redirected 5 times. Video 3: never.
    add_flow(1, 0.0, 10'000, 1);
    for (int i = 0; i < 5; ++i) add_flow(1, 100.0 * i, 10'000, 2);
    add_flow(0, 999.0, 10'000, 3);
    const auto cdf = redirects().counts_cdf();
    ASSERT_EQ(cdf.size(), 2u);  // only videos with >= 1 non-preferred download
    EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.max(), 5.0);
}

TEST_F(AnalysisFixture, TopRedirectedVideos) {
    for (int i = 0; i < 5; ++i) add_flow(1, i * 10.0, 10'000, 7);
    for (int i = 0; i < 3; ++i) add_flow(1, i * 10.0, 10'000, 8);
    add_flow(1, 0.0, 10'000, 9);
    const auto top = redirects().top_videos(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0], cdn::VideoId{7});
    EXPECT_EQ(top[1], cdn::VideoId{8});
}

TEST_F(AnalysisFixture, VideoHourlyLoadSeries) {
    add_flow(0, 10.0, 10'000, 5);
    add_flow(1, 20.0, 10'000, 5);
    add_flow(0, sim::kHour + 10.0, 10'000, 5);
    add_flow(0, 30.0, 10'000, 6);  // other video ignored
    const auto series = video_load(5).load(0);
    ASSERT_EQ(series.all.points.size(), 2u);
    EXPECT_DOUBLE_EQ(series.all.points[0].second, 2.0);
    EXPECT_DOUBLE_EQ(series.non_preferred.points[0].second, 1.0);
    EXPECT_DOUBLE_EQ(series.non_preferred.points[1].second, 0.0);
}

TEST_F(AnalysisFixture, PreferredDcServerLoadAvgMax) {
    // Two servers in the preferred DC: one gets 3 requests, other gets 1.
    for (int i = 0; i < 3; ++i) add_flow(0, 10.0 * i, 10'000, 1, 0, 1, /*shost=*/1);
    add_flow(0, 40.0, 10'000, 2, 0, 1, /*shost=*/2);
    add_flow(1, 50.0, 10'000, 3);  // non-preferred, ignored
    const auto load = server_load();
    ASSERT_EQ(load.avg.points.size(), 1u);
    EXPECT_DOUBLE_EQ(load.avg.points[0].second, 2.0);
    EXPECT_DOUBLE_EQ(load.max.points[0].second, 3.0);
}

TEST_F(AnalysisFixture, HotServerSessionBreakdown) {
    // Server .1 in Milan handles video 5. Session A stays preferred;
    // session B starts there and is redirected.
    add_flow(0, 0.0, 10'000, 5, 0, 1, 1);
    add_flow(0, 100.0, 500, 5, 0, 2, 1);
    add_flow(1, 100.3, 10'000, 5, 0, 2, 1);
    const auto hot_ip = video_load(5).hot_server();
    ASSERT_TRUE(hot_ip.has_value());
    const auto hot = sessions().hot_server(*hot_ip, ds_.name);
    EXPECT_EQ(hot.server, server(0, 1));
    double all_pref = 0.0, first_pref = 0.0;
    for (const auto& p : hot.all_preferred.points) all_pref += p.second;
    for (const auto& p : hot.first_preferred_then_other.points) first_pref += p.second;
    EXPECT_DOUBLE_EQ(all_pref, 1.0);
    EXPECT_DOUBLE_EQ(first_pref, 1.0);
}

TEST_F(AnalysisFixture, BytesVsRttAndDistanceCurves) {
    for (int i = 0; i < 9; ++i) add_flow(0, i, 100);
    add_flow(1, 100.0, 100);
    const auto traffic = analysis::traffic_by_dc(ds_, map_);
    const auto rtt_curve = analysis::bytes_vs_rtt(traffic, map_, ds_.name);
    ASSERT_EQ(rtt_curve.points.size(), 3u);  // origin + 2 DCs
    EXPECT_DOUBLE_EQ(rtt_curve.points[1].first, 10.0);
    EXPECT_DOUBLE_EQ(rtt_curve.points[1].second, 0.9);
    EXPECT_DOUBLE_EQ(rtt_curve.points[2].second, 1.0);

    const auto dist_curve = analysis::bytes_vs_distance(traffic, map_, ds_.name);
    EXPECT_DOUBLE_EQ(dist_curve.points[1].first, 125.0);
}

TEST_F(AnalysisFixture, AsBreakdownSplitsGroups) {
    net::AsRegistry whois;
    whois.add(net::Subnet{server(0, 0), 24}, net::well_known_as::kGoogle, "Google");
    whois.add(net::Subnet{server(1, 0), 24}, net::well_known_as::kYouTubeEu, "YT-EU");
    whois.add(net::Subnet{net::IpAddress::from_octets(84, 116, 0, 0), 24},
              net::Asn{5483}, "EU2-ISP");

    for (int i = 0; i < 6; ++i) add_flow(0, i, 1000);
    add_flow(1, 50.0, 1000);
    capture::FlowRecord isp;
    isp.client_ip = client(0, 1);
    isp.server_ip = net::IpAddress::from_octets(84, 116, 0, 9);
    isp.video = cdn::VideoId{1};
    isp.start = 60.0;
    isp.end = 61.0;
    isp.bytes = 2000;
    ds_.records.push_back(isp);

    const auto as = analysis::fold_records(
        ds_, analysis::IncrementalAsBreakdown(whois, net::Asn{5483}));
    const auto row = as.row(ds_.name);
    EXPECT_NEAR(row.google_servers, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(row.youtube_eu_servers, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(row.same_as_servers, 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(row.google_bytes, 6000.0 / 9000.0, 1e-9);
    EXPECT_NEAR(row.same_as_bytes, 2000.0 / 9000.0, 1e-9);

    const auto scope = as.scope_servers();
    EXPECT_EQ(scope.size(), 2u);  // Google server + ISP server, not YT-EU
}

TEST_F(AnalysisFixture, PearsonCorrelation) {
    analysis::Series a{"a", {{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}}};
    analysis::Series b{"b", {{0, 2.0}, {1, 4.0}, {2, 6.0}, {3, 8.0}}};
    EXPECT_NEAR(analysis::pearson_correlation(a, b), 1.0, 1e-12);
    analysis::Series c{"c", {{0, 8.0}, {1, 6.0}, {2, 4.0}, {3, 2.0}}};
    EXPECT_NEAR(analysis::pearson_correlation(a, c), -1.0, 1e-12);
    analysis::Series flat{"f", {{0, 5.0}, {1, 5.0}, {2, 5.0}, {3, 5.0}}};
    EXPECT_DOUBLE_EQ(analysis::pearson_correlation(a, flat), 0.0);
    analysis::Series tiny{"t", {{0, 1.0}}};
    EXPECT_DOUBLE_EQ(analysis::pearson_correlation(a, tiny), 0.0);
}

TEST_F(AnalysisFixture, LoadVsNonPreferredCorrelation) {
    // Build 24 busy + 24 quiet hours where the non-preferred fraction rises
    // exactly with load (EU2 behaviour): correlation should be ~1.
    for (int h = 0; h < 48; ++h) {
        const bool busy = h % 2 == 0;
        const int flows = busy ? 40 : 10;
        const int np = busy ? 24 : 1;  // 60% vs 10% non-preferred
        for (int i = 0; i < flows; ++i) {
            add_flow(i < np ? 1 : 0, h * sim::kHour + i * 60.0, 10'000,
                     /*video=*/static_cast<std::uint64_t>(h * 100 + i));
        }
    }
    const double corr =
        hourly().correlation();
    EXPECT_GT(corr, 0.95);
}

TEST_F(AnalysisFixture, ContinentCounting) {
    std::vector<ytcdn::geoloc::LocatedServer> servers(4);
    const auto& db = geo::CityDatabase::builtin();
    servers[0].city = db.find("Milan");
    servers[1].city = db.find("Dallas");
    servers[2].city = db.find("Tokyo");
    servers[3].city = nullptr;
    const auto counts = analysis::servers_per_continent(servers);
    EXPECT_EQ(counts.europe, 1u);
    EXPECT_EQ(counts.north_america, 1u);
    EXPECT_EQ(counts.others, 1u);
    EXPECT_EQ(counts.unlocated, 1u);
    EXPECT_EQ(counts.located_total(), 3u);
}

}  // namespace
