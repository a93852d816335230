// Validates the measurement-only analysis path: servers geolocated with
// CBG and clustered into data centers must reproduce the conclusions that
// the ground-truth mapping gives — the paper's core methodological claim.

#include "study/dc_map_builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/as_analysis.hpp"
#include "analysis/dc_map.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/streaming.hpp"
#include "geo/city.hpp"
#include "net/pinger.hpp"
#include "study/study_run.hpp"
#include "util/metrics.hpp"

namespace study = ytcdn::study;
namespace analysis = ytcdn::analysis;
namespace geoloc = ytcdn::geoloc;
namespace geo = ytcdn::geo;
namespace sim = ytcdn::sim;

namespace {

class CbgMapFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.01;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
        // Each vantage point's analysis scope, as Table II's fold keeps it.
        scopes_.clear();
        for (std::size_t i = 0; i < run_->traces.datasets.size(); ++i) {
            scopes_.push_back(analysis::fold_records(
                                  run_->traces.datasets[i],
                                  analysis::IncrementalAsBreakdown(
                                      run_->deployment->whois(),
                                      run_->deployment->local_as(i)))
                                  .scope_servers());
        }

        // A reduced landmark set keeps the suite fast while preserving
        // worldwide coverage.
        geoloc::LandmarkCounts counts;
        counts.north_america = 30;
        counts.europe = 30;
        counts.asia = 8;
        counts.south_america = 4;
        counts.oceania = 2;
        counts.africa = 1;
        auto landmarks = geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                                          sim::Rng(5), counts);
        geoloc::CbgLocator::Config cbg_cfg;
        cbg_cfg.grid = 48;
        locator_ = std::make_unique<geoloc::CbgLocator>(run_->deployment->rtt(),
                                                        std::move(landmarks), cbg_cfg, 17);
        locator_->calibrate();

        located_ = std::make_unique<study::DcLocations>(
            study::locate_scope_dcs(*run_->deployment, scopes_, *locator_));
        const auto idx = run_->vp_index("EU1-Campus");
        mapping_ = std::make_unique<study::CbgMappingResult>(study::cbg_dc_map(
            *run_->deployment, scopes_[idx], *located_, run_->deployment->vantage(idx)));
    }
    static void TearDownTestSuite() {
        mapping_.reset();
        located_.reset();
        locator_.reset();
        run_.reset();
    }

    static std::unique_ptr<study::StudyRun> run_;
    static std::vector<std::vector<ytcdn::net::IpAddress>> scopes_;
    static std::unique_ptr<geoloc::CbgLocator> locator_;
    static std::unique_ptr<study::DcLocations> located_;
    static std::unique_ptr<study::CbgMappingResult> mapping_;
};

std::unique_ptr<study::StudyRun> CbgMapFixture::run_;
std::vector<std::vector<ytcdn::net::IpAddress>> CbgMapFixture::scopes_;
std::unique_ptr<geoloc::CbgLocator> CbgMapFixture::locator_;
std::unique_ptr<study::DcLocations> CbgMapFixture::located_;
std::unique_ptr<study::CbgMappingResult> CbgMapFixture::mapping_;

TEST_F(CbgMapFixture, LocatesAllScopeServers) {
    EXPECT_GT(mapping_->located.size(), 100u);
    std::size_t located = 0;
    for (const auto& s : mapping_->located) {
        if (s.city != nullptr) ++located;
    }
    // Nearly every server snaps to some city.
    EXPECT_GT(static_cast<double>(located) /
                  static_cast<double>(mapping_->located.size()),
              0.9);
}

TEST_F(CbgMapFixture, ClustersAreCityLevel) {
    EXPECT_GT(mapping_->clusters.size(), 5u);
    EXPECT_LE(mapping_->clusters.size(), 40u);
    // Largest-first ordering.
    for (std::size_t i = 1; i < mapping_->clusters.size(); ++i) {
        EXPECT_GE(mapping_->clusters[i - 1].servers.size(),
                  mapping_->clusters[i].servers.size());
    }
    // The /24 invariant: all members of a /24 are in the same cluster.
    std::unordered_map<ytcdn::net::IpAddress, std::string> subnet_city;
    for (const auto& cluster : mapping_->clusters) {
        for (const auto ip : cluster.servers) {
            const auto [it, inserted] =
                subnet_city.emplace(ip.slash24(), cluster.city_name);
            EXPECT_EQ(it->second, cluster.city_name) << ip.to_string();
        }
    }
}

TEST_F(CbgMapFixture, CbgPreferredMatchesGroundTruth) {
    const auto idx = run_->vp_index("EU1-Campus");
    const auto& ds = run_->traces.datasets[idx];

    const int cbg_pref = analysis::preferred_dc(ds, mapping_->map);
    ASSERT_GE(cbg_pref, 0);
    const int truth_pref = run_->preferred[idx];

    // Same city, discovered purely from measurements.
    EXPECT_EQ(mapping_->map.info(cbg_pref).name,
              run_->maps[idx].info(truth_pref).name);

    // And the same headline number.
    const auto cbg_share = analysis::non_preferred_share(ds, mapping_->map, cbg_pref);
    const auto truth_share =
        analysis::non_preferred_share(ds, run_->maps[idx], truth_pref);
    EXPECT_NEAR(cbg_share.byte_fraction, truth_share.byte_fraction, 0.05);
}

TEST_F(CbgMapFixture, MeasuredRttAndDistanceArePlausible) {
    for (std::size_t d = 0; d < mapping_->map.num_data_centers(); ++d) {
        const auto& info = mapping_->map.info(static_cast<int>(d));
        EXPECT_GT(info.rtt_ms, 0.0) << info.name;
        EXPECT_LT(info.rtt_ms, 400.0) << info.name;
        EXPECT_GE(info.distance_km, 0.0);
        // RTT should be loosely consistent with distance (soundness of the
        // combined pipeline): at least the propagation floor.
        EXPECT_GT(info.rtt_ms, info.distance_km * 0.01 - 1.0) << info.name;
    }
}

TEST_F(CbgMapFixture, SharedTableMatchesOneLocatePerSubnet) {
    // The located-once-per-data-center table must map every vantage point
    // exactly as running locate() once per /24 (at the site of the data
    // center owning the /24's first in-scope IP) does.
    const auto& world = *run_->deployment;
    const auto& cities = geo::CityDatabase::builtin();
    for (std::size_t i = 0; i < run_->traces.datasets.size(); ++i) {
        const auto& ds = run_->traces.datasets[i];
        const auto& scope = scopes_[i];
        const auto mapping = study::cbg_dc_map(world, scope, *located_, world.vantage(i));

        std::unordered_map<ytcdn::net::IpAddress, geoloc::CbgResult> per_subnet;
        for (const auto ip : scope) {
            if (per_subnet.contains(ip.slash24())) continue;
            const auto dc = world.cdn().dc_of_ip(ip);
            if (dc == ytcdn::cdn::kInvalidDc) continue;
            per_subnet.emplace(ip.slash24(), locator_->locate(world.cdn().dc(dc).site));
        }
        std::size_t k = 0;
        for (const auto ip : scope) {
            const auto it = per_subnet.find(ip.slash24());
            if (it == per_subnet.end()) continue;
            ASSERT_LT(k, mapping.located.size()) << ds.name;
            const auto& got = mapping.located[k++];
            const auto& want = it->second;
            EXPECT_EQ(got.ip, ip) << ds.name;
            EXPECT_EQ(got.cbg.valid, want.valid);
            EXPECT_EQ(got.cbg.estimate.lat_deg, want.estimate.lat_deg);
            EXPECT_EQ(got.cbg.estimate.lon_deg, want.estimate.lon_deg);
            EXPECT_EQ(got.cbg.confidence_radius_km, want.confidence_radius_km);
            EXPECT_EQ(got.cbg.region_area_km2, want.region_area_km2);
            EXPECT_EQ(got.cbg.circles_used, want.circles_used);
            EXPECT_EQ(got.cbg.relaxed, want.relaxed);
            EXPECT_EQ(got.city, geoloc::snap_to_city(want, cities));
        }
        EXPECT_EQ(k, mapping.located.size()) << ds.name;
    }
}

TEST_F(CbgMapFixture, AsBreakdownMatchesAPerFlowReference) {
    // Table II's fold classifies each server once; the reference runs the
    // registry on every flow, as the paper's whois pass reads. The fold is
    // copied and moved half-way through, since ReportFolds is.
    namespace net = ytcdn::net;
    const auto& world = *run_->deployment;
    for (std::size_t i = 0; i < run_->traces.datasets.size(); ++i) {
        const auto& ds = run_->traces.datasets[i];
        SCOPED_TRACE(ds.name);
        const net::Asn local_as = world.local_as(i);
        std::unordered_set<net::IpAddress> servers[4];
        std::uint64_t bytes[4] = {};
        analysis::IncrementalAsBreakdown first(world.whois(), local_as);
        analysis::IncrementalAsBreakdown fold(world.whois(), local_as);
        const std::size_t half = ds.records.size() / 2;
        for (std::size_t k = 0; k < ds.records.size(); ++k) {
            const auto& r = ds.records[k];
            const auto asn = world.whois().asn_of(r.server_ip);
            const int g = asn == net::well_known_as::kGoogle      ? 0
                          : asn == net::well_known_as::kYouTubeEu ? 1
                          : asn == local_as                       ? 2
                                                                  : 3;
            servers[g].insert(r.server_ip);
            bytes[g] += r.bytes;
            if (k < half) {
                first.add(r);
                if (k + 1 == half) {
                    analysis::IncrementalAsBreakdown copy = first;
                    fold = std::move(copy);
                }
            } else {
                fold.add(r);
            }
        }
        if (half == 0) fold = first;

        const double n_servers = static_cast<double>(
            servers[0].size() + servers[1].size() + servers[2].size() + servers[3].size());
        const double n_bytes = static_cast<double>(bytes[0] + bytes[1] + bytes[2] + bytes[3]);
        ASSERT_GT(n_servers, 0.0);
        const auto row = fold.row(ds.name);
        EXPECT_EQ(row.dataset, ds.name);
        EXPECT_EQ(row.google_servers, static_cast<double>(servers[0].size()) / n_servers);
        EXPECT_EQ(row.youtube_eu_servers, static_cast<double>(servers[1].size()) / n_servers);
        EXPECT_EQ(row.same_as_servers, static_cast<double>(servers[2].size()) / n_servers);
        EXPECT_EQ(row.other_servers, static_cast<double>(servers[3].size()) / n_servers);
        EXPECT_EQ(row.google_bytes, static_cast<double>(bytes[0]) / n_bytes);
        EXPECT_EQ(row.youtube_eu_bytes, static_cast<double>(bytes[1]) / n_bytes);
        EXPECT_EQ(row.same_as_bytes, static_cast<double>(bytes[2]) / n_bytes);
        EXPECT_EQ(row.other_bytes, static_cast<double>(bytes[3]) / n_bytes);

        std::vector<net::IpAddress> scope(servers[0].begin(), servers[0].end());
        scope.insert(scope.end(), servers[2].begin(), servers[2].end());
        std::sort(scope.begin(), scope.end());
        EXPECT_EQ(fold.scope_servers(), scope);
        EXPECT_EQ(scopes_[i], scope);
    }
}

TEST_F(CbgMapFixture, MapMatchesAPerServerSnappingReference) {
    // cbg_dc_map snaps each located result once; the reference snaps every
    // server and derives clusters and probe RTTs from that, as the paper's
    // per-address pass would. Located servers, clusters and the written
    // map must all agree at every vantage point.
    namespace net = ytcdn::net;
    const auto& world = *run_->deployment;
    const auto& cities = geo::CityDatabase::builtin();
    for (std::size_t i = 0; i < run_->traces.datasets.size(); ++i) {
        const auto& vp = world.vantage(i);
        SCOPED_TRACE(vp.name);
        const auto& scope = scopes_[i];
        const auto got = study::cbg_dc_map(world, scope, *located_, vp);

        std::unordered_map<net::IpAddress, ytcdn::cdn::DcId> subnet_dc;
        for (const auto ip : scope) {
            if (subnet_dc.contains(ip.slash24())) continue;
            const auto dc = world.cdn().dc_of_ip(ip);
            if (dc != ytcdn::cdn::kInvalidDc) subnet_dc.emplace(ip.slash24(), dc);
        }
        std::vector<geoloc::LocatedServer> located;
        for (const auto ip : scope) {
            const auto it = subnet_dc.find(ip.slash24());
            if (it == subnet_dc.end()) continue;
            const auto& cbg = located_->at(it->second);
            located.push_back({ip, cbg, geoloc::snap_to_city(cbg, cities)});
        }
        ASSERT_EQ(got.located.size(), located.size());
        for (std::size_t k = 0; k < located.size(); ++k) {
            EXPECT_EQ(got.located[k].ip, located[k].ip);
            EXPECT_EQ(got.located[k].city, located[k].city) << located[k].ip.to_string();
            EXPECT_EQ(got.located[k].cbg.estimate.lat_deg, located[k].cbg.estimate.lat_deg);
            EXPECT_EQ(got.located[k].cbg.estimate.lon_deg, located[k].cbg.estimate.lon_deg);
        }

        const auto clusters = geoloc::cluster_servers(located);
        ASSERT_EQ(got.clusters.size(), clusters.size());
        analysis::ServerDcMap map;
        net::Pinger pinger(world.rtt(),
                           world.config().seed ^ sim::hash_string(vp.name) ^ 0xCB6ull);
        for (std::size_t c = 0; c < clusters.size(); ++c) {
            const auto& cluster = clusters[c];
            EXPECT_EQ(got.clusters[c].city_name, cluster.city_name);
            EXPECT_EQ(got.clusters[c].servers, cluster.servers);
            analysis::DataCenterInfo info;
            info.name = cluster.city_name;
            info.location = cluster.location;
            info.continent = cluster.continent;
            info.distance_km = geo::distance_km(vp.pop_site.location, cluster.location);
            double best = 1e18;
            std::unordered_set<net::IpAddress> seen;
            for (const auto ip : cluster.servers) {
                if (!seen.insert(ip.slash24()).second) continue;
                const auto dc = world.cdn().dc_of_ip(ip);
                if (dc == ytcdn::cdn::kInvalidDc) continue;
                best = std::min(best, pinger.min_rtt_ms(vp.probe_site,
                                                        world.cdn().dc(dc).site, 10));
            }
            info.rtt_ms = best;
            const int idx = map.add_data_center(std::move(info));
            for (const auto ip : cluster.servers) map.assign(ip, idx);
        }
        std::ostringstream got_bytes;
        std::ostringstream want_bytes;
        analysis::write_dc_map(got_bytes, got.map);
        analysis::write_dc_map(want_bytes, map);
        EXPECT_FALSE(want_bytes.str().empty());
        EXPECT_EQ(got_bytes.str(), want_bytes.str());
    }
}

std::uint64_t locates_so_far() {
    for (const auto& e : ytcdn::util::metrics::Registry::global().snapshot().entries) {
        if (e.name == "geoloc.cbg.locates") return e.value;
    }
    return 0;
}

TEST_F(CbgMapFixture, LocatesEachDataCenterOnce) {
    // One locate() per distinct data center, however many (vantage point,
    // /24) pairs stand for it.
    const auto before = locates_so_far();
    const auto located = study::locate_scope_dcs(*run_->deployment, scopes_, *locator_);
    EXPECT_EQ(locates_so_far() - before, located.size());

    std::size_t subnet_pairs = 0;
    for (std::size_t i = 0; i < run_->traces.datasets.size(); ++i) {
        std::unordered_set<ytcdn::net::IpAddress> subnets;
        for (const auto ip : scopes_[i]) {
            if (run_->deployment->cdn().dc_of_ip(ip) != ytcdn::cdn::kInvalidDc) {
                subnets.insert(ip.slash24());
            }
        }
        subnet_pairs += subnets.size();
    }
    EXPECT_GT(located.size(), 5u);
    EXPECT_LT(located.size(), subnet_pairs);
}

TEST_F(CbgMapFixture, MissingDataCenterThrows) {
    const auto idx = run_->vp_index("EU1-Campus");
    EXPECT_THROW((void)study::cbg_dc_map(*run_->deployment, scopes_[idx],
                                         study::DcLocations{},
                                         run_->deployment->vantage(idx)),
                 std::invalid_argument);
}

}  // namespace
