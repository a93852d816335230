// analysis::redirect unit tests pinned to Section VII-B: Fig. 13's CDF of
// per-video non-preferred download counts (mass at exactly 1 = unpopular
// content pushed out of the preferred cache, long tail = hot videos whose
// server saturates), Fig. 14's per-video hourly load split, Fig. 15's
// per-server load at the preferred DC and Fig. 16's session breakdown at
// the hot video's server.

#include <gtest/gtest.h>

#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "sim/time.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace geo = ytcdn::geo;
namespace net = ytcdn::net;
namespace sim = ytcdn::sim;

namespace {

class RedirectFixture : public ::testing::Test {
protected:
    RedirectFixture() {
        milan_ = map_.add_data_center(
            {"Milan", {45.46, 9.19}, geo::Continent::Europe, 10.0, 125.0});
        frankfurt_ = map_.add_data_center(
            {"Frankfurt", {50.11, 8.68}, geo::Continent::Europe, 30.0, 550.0});
        map_.assign(server(0, 1), milan_);
        map_.assign(server(1, 1), frankfurt_);
        ds_.name = "EU2";
    }

    static net::IpAddress server(int dc, std::uint8_t host) {
        return net::IpAddress::from_octets(173, 194, static_cast<std::uint8_t>(dc),
                                           host);
    }

    void add_flow(int dc, double t, std::uint64_t video,
                  std::uint64_t bytes = 10'000, std::uint8_t chost = 1,
                  std::uint8_t shost = 1) {
        capture::FlowRecord r;
        r.client_ip = net::IpAddress::from_octets(10, 0, 0, chost);
        r.server_ip = server(dc, shost);
        r.video = cdn::VideoId{video};
        r.start = t;
        r.end = t + 10.0;
        r.bytes = bytes;
        ds_.records.push_back(r);
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

TEST_F(RedirectFixture, Fig13MassAtOneSeparatesUnpopularFromHotContent) {
    // Nine videos redirected exactly once (cache-miss of unpopular content)
    // and one hot video redirected 40 times: the CDF shows 90% mass at 1
    // and a tail reaching 40 — the paper's signature shape.
    for (std::uint64_t v = 1; v <= 9; ++v) {
        add_flow(1, 100.0 * static_cast<double>(v), v);
    }
    for (int i = 0; i < 40; ++i) add_flow(1, 1000.0 + i, /*video=*/99);
    for (int i = 0; i < 50; ++i) add_flow(0, 5000.0 + i, /*video=*/100);

    const auto cdf = redirects().counts_cdf();
    ASSERT_EQ(cdf.size(), 10u);  // video 100 never left the preferred DC
    EXPECT_DOUBLE_EQ(cdf.fraction_at_or_below(1.0), 0.9);
    EXPECT_DOUBLE_EQ(cdf.max(), 40.0);
}

TEST_F(RedirectFixture, CountsIgnoreControlFlowsAndUnmappedServers) {
    add_flow(1, 0.0, 1, /*bytes=*/500);  // control flow to non-preferred
    capture::FlowRecord legacy;
    legacy.client_ip = net::IpAddress::from_octets(10, 0, 0, 1);
    legacy.server_ip = net::IpAddress::from_octets(212, 187, 0, 1);
    legacy.video = cdn::VideoId{1};
    legacy.start = 10.0;
    legacy.end = 20.0;
    legacy.bytes = 10'000;
    ds_.records.push_back(legacy);
    EXPECT_EQ(redirects().counts_cdf().size(), 0u);
    EXPECT_TRUE(redirects().top_videos(4).empty());
}

TEST_F(RedirectFixture, TopRedirectedBreaksTiesByVideoIdAndClampsK) {
    for (int i = 0; i < 3; ++i) add_flow(1, i * 10.0, /*video=*/8);
    for (int i = 0; i < 3; ++i) add_flow(1, i * 10.0, /*video=*/5);
    add_flow(1, 0.0, /*video=*/2);
    const auto top = redirects().top_videos(10);
    ASSERT_EQ(top.size(), 3u);  // k clamps to the population
    EXPECT_EQ(top[0], cdn::VideoId{5});  // tie at 3 downloads: lower id first
    EXPECT_EQ(top[1], cdn::VideoId{8});
    EXPECT_EQ(top[2], cdn::VideoId{2});
}

TEST_F(RedirectFixture, VideoHourlyLoadPadsTheNonPreferredSeries) {
    add_flow(1, 10.0, /*video=*/5);                // hour 0: redirected
    add_flow(0, 2 * sim::kHour + 10.0, 5);        // hour 2: preferred
    add_flow(0, 2 * sim::kHour + 20.0, 6);        // other video: ignored
    const auto series = video_load(5).load(0);
    ASSERT_EQ(series.all.points.size(), 3u);
    ASSERT_EQ(series.non_preferred.points.size(), 3u);  // padded to match
    EXPECT_DOUBLE_EQ(series.all.points[1].second, 0.0);
    EXPECT_DOUBLE_EQ(series.non_preferred.points[0].second, 1.0);
    EXPECT_DOUBLE_EQ(series.non_preferred.points[2].second, 0.0);
}

TEST_F(RedirectFixture, ServerLoadAveragesAcrossActiveServersPerHour) {
    map_.assign(server(0, 2), milan_);
    // Hour 0: server 1 takes 4 requests, server 2 takes 2. Hour 1 silent.
    // Hour 2: only server 2, with 3 requests.
    for (int i = 0; i < 4; ++i) add_flow(0, 10.0 * i, 1, 10'000, 1, /*shost=*/1);
    for (int i = 0; i < 2; ++i) add_flow(0, 100.0 + i, 2, 10'000, 1, /*shost=*/2);
    for (int i = 0; i < 3; ++i) {
        add_flow(0, 2 * sim::kHour + i, 3, 10'000, 1, /*shost=*/2);
    }
    add_flow(1, 50.0, 4);  // non-preferred: never counted

    const auto load = server_load();
    ASSERT_EQ(load.avg.points.size(), 2u);  // the silent hour is skipped
    EXPECT_DOUBLE_EQ(load.avg.points[0].first, 0.0);
    EXPECT_DOUBLE_EQ(load.avg.points[0].second, 3.0);
    EXPECT_DOUBLE_EQ(load.max.points[0].second, 4.0);
    EXPECT_DOUBLE_EQ(load.avg.points[1].first, 2.0);
    EXPECT_DOUBLE_EQ(load.avg.points[1].second, 3.0);
    EXPECT_DOUBLE_EQ(load.max.points[1].second, 3.0);
}

TEST_F(RedirectFixture, HotServerSessionsSplitsStayersFromRedirected) {
    // Fig. 16: sessions arriving at the hot server either finish there
    // ("all preferred") or get redirected mid-session. Use distinct client
    // hosts so the flows group into distinct sessions.
    add_flow(0, 0.0, 5, 10'000, /*chost=*/1);                  // stays
    add_flow(0, sim::kHour + 0.0, 5, 500, /*chost=*/2);        // control, then
    add_flow(1, sim::kHour + 10.3, 5, 10'000, /*chost=*/2);    // redirected
    const auto folded = sessions();
    ASSERT_EQ(folded.num_sessions(), 2u);
    const auto hot_ip = video_load(5).hot_server();
    ASSERT_TRUE(hot_ip.has_value());
    const auto hot = folded.hot_server(*hot_ip, ds_.name);
    EXPECT_EQ(hot.server, server(0, 1));
    ASSERT_EQ(hot.all_preferred.points.size(), 2u);
    EXPECT_DOUBLE_EQ(hot.all_preferred.points[0].second, 1.0);
    EXPECT_DOUBLE_EQ(hot.all_preferred.points[1].second, 0.0);
    EXPECT_DOUBLE_EQ(hot.first_preferred_then_other.points[1].second, 1.0);
    for (const auto& p : hot.others.points) EXPECT_DOUBLE_EQ(p.second, 0.0);
}

TEST_F(RedirectFixture, HotServerTieGoesToTheLowestAddress) {
    // Two Milan servers (same /24) with two requests each for the video:
    // the tie must not depend on hash-table iteration order. The higher
    // address comes first, so a first-seen pick would choose it.
    add_flow(0, 0.0, 5, 10'000, /*chost=*/1, /*shost=*/2);
    add_flow(0, 100.0, 5, 10'000, /*chost=*/2, /*shost=*/2);
    add_flow(0, 200.0, 5, 10'000, /*chost=*/3, /*shost=*/1);
    add_flow(0, 300.0, 5, 10'000, /*chost=*/4, /*shost=*/1);
    const auto hot_ip = video_load(5).hot_server();
    ASSERT_TRUE(hot_ip.has_value());
    const auto hot = sessions().hot_server(*hot_ip, ds_.name);
    EXPECT_EQ(hot.server, server(0, 1));
    ASSERT_EQ(hot.all_preferred.points.size(), 1u);
    EXPECT_DOUBLE_EQ(hot.all_preferred.points[0].second, 2.0);
}

TEST_F(RedirectFixture, HotServerSessionsWithUnknownVideoIsEmpty) {
    add_flow(0, 0.0, 5);
    // No preferred-DC request for the video: no hot server, and the
    // report renders Fig. 16 from an empty breakdown.
    EXPECT_FALSE(video_load(777).hot_server().has_value());
    const auto hot = sessions().hot_server(net::IpAddress{}, ds_.name);
    EXPECT_EQ(hot.server, net::IpAddress{});
    EXPECT_TRUE(hot.all_preferred.points.empty());
    EXPECT_TRUE(hot.first_preferred_then_other.points.empty());
    EXPECT_TRUE(hot.others.points.empty());
}

}  // namespace
