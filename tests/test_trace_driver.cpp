#include "study/trace_driver.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/session.hpp"
#include "capture/binary_log.hpp"
#include "net/as_registry.hpp"
#include "study/study_run.hpp"

namespace study = ytcdn::study;
namespace workload = ytcdn::workload;
namespace analysis = ytcdn::analysis;
namespace net = ytcdn::net;
namespace cdn = ytcdn::cdn;
namespace capture = ytcdn::capture;

namespace {

study::StudyConfig tiny_config() {
    study::StudyConfig cfg;
    cfg.scale = 0.005;
    return cfg;
}

TEST(TraceDriver, PlayerConfigOverridePropagates) {
    study::StudyDeployment deployment(tiny_config());
    workload::Player::Config cfg;
    cfg.dns_ttl_s = 3600.0;
    study::TraceDriver driver(deployment, cfg);
    const auto traces = driver.run(ytcdn::sim::kDay);
    std::uint64_t hits = 0;
    for (const auto& stats : traces.player_stats) hits += stats.dns_cache_hits;
    EXPECT_GT(hits, 0u);
}

TEST(TraceDriver, DefaultConfigHasNoDnsCaching) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const auto traces = driver.run(ytcdn::sim::kDay);
    for (const auto& stats : traces.player_stats) {
        EXPECT_EQ(stats.dns_cache_hits, 0u);
    }
}

TEST(TraceDriver, Eu2LegacyFlowsAreFullQuality) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const auto traces = driver.run(2 * ytcdn::sim::kDay);

    // Average legacy (YouTube-EU AS) video-flow size: EU2's legacy streams
    // are full encodes; other networks get degraded 240p partials.
    const auto legacy_mean = [&](const ytcdn::capture::Dataset& ds) {
        double sum = 0.0;
        std::uint64_t n = 0;
        for (const auto& r : ds.records) {
            if (deployment.whois().asn_of(r.server_ip) !=
                net::well_known_as::kYouTubeEu) {
                continue;
            }
            if (analysis::classify_flow_size(r.bytes) != analysis::FlowKind::Video) {
                continue;
            }
            sum += static_cast<double>(r.bytes);
            ++n;
        }
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
    };
    double eu2 = 0.0, others = 0.0;
    int other_count = 0;
    for (const auto& ds : traces.datasets) {
        const double mean = legacy_mean(ds);
        if (ds.name == "EU2") {
            eu2 = mean;
        } else if (mean > 0.0) {
            others += mean;
            ++other_count;
        }
    }
    ASSERT_GT(eu2, 0.0);
    ASSERT_GT(other_count, 0);
    EXPECT_GT(eu2, 2.0 * (others / other_count));
}

TEST(TraceDriver, HorizonIsRespectedWithDrainWindow) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    const double horizon = ytcdn::sim::kDay;
    const auto traces = driver.run(horizon);
    for (const auto& ds : traces.datasets) {
        for (const auto& r : ds.records) {
            // No flow *starts* after the capture horizon plus the redirect
            // drain window (pause resumes can trail the last arrival).
            EXPECT_LE(r.start, horizon + 2.0 * ytcdn::sim::kHour) << ds.name;
        }
    }
}

TEST(TraceDriver, SharedCdnStateAcrossVantagePoints) {
    // A video pulled by one network's miss is warm for another: run the
    // driver and check pulled caches are globally visible.
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    (void)driver.run(ytcdn::sim::kDay);
    std::size_t pulled_total = 0;
    for (const auto& dc : deployment.cdn().data_centers()) {
        if (!cdn::in_analysis_scope(dc.infra)) continue;
        pulled_total += deployment.cdn().cache(dc.id).pulled_count();
    }
    EXPECT_GT(pulled_total, 0u);
}

TEST(TraceDriver, StreamingSinksSeeTheExactMaterializedRecords) {
    // Sink mode is the bounded-memory capture path: the forwarded stream
    // must carry the same records the materializing run accumulates, each
    // VP's stream sorted by non-decreasing start time (the precondition
    // the incremental analyses rely on), and the returned datasets must
    // stay empty while every counter still matches.
    const auto cfg = tiny_config();
    const auto materialized = study::run_study(cfg);

    struct Collect : capture::FlowSink {
        std::vector<capture::FlowRecord> records;
        void on_flow(const capture::FlowRecord& r) override {
            records.push_back(r);
        }
    };
    std::vector<Collect> collectors(study::kNumVantagePoints);
    std::vector<capture::FlowSink*> sinks;
    for (auto& c : collectors) sinks.push_back(&c);

    study::StudyDeployment dep(cfg);
    study::TraceDriver driver(dep);
    driver.set_flow_sinks(std::move(sinks));
    const auto streamed = driver.run();

    const auto& expected = materialized.traces;
    ASSERT_EQ(streamed.datasets.size(), expected.datasets.size());
    for (std::size_t i = 0; i < streamed.datasets.size(); ++i) {
        EXPECT_TRUE(streamed.datasets[i].records.empty()) << i;
        EXPECT_EQ(streamed.flows_observed[i], expected.flows_observed[i]);
        EXPECT_EQ(streamed.flows_ignored[i], expected.flows_ignored[i]);

        // The stream arrives start-sorted...
        const auto& got = collectors[i].records;
        for (std::size_t k = 1; k < got.size(); ++k) {
            ASSERT_LE(got[k - 1].start, got[k].start) << i << "/" << k;
        }
        // ...and sorting it like the materializing join does yields the
        // exact dataset run_study produced.
        capture::Dataset ds;
        ds.name = expected.datasets[i].name;
        ds.records = got;
        ds.sort_by_time();
        std::ostringstream a, b;
        capture::write_binary_log(a, ds.records);
        capture::write_binary_log(b, expected.datasets[i].records);
        EXPECT_EQ(a.str(), b.str()) << i;
    }
    EXPECT_EQ(streamed.events_processed, expected.events_processed);
}

TEST(TraceDriver, FramingSinksBuildEachLogAsBlockFrames) {
    // The supervised study's capture: a LogFramingSink per vantage point
    // builds the log run_study's sorted dataset encodes to, one block frame
    // per piece, while the driver returns datasets that hold no records.
    const auto cfg = tiny_config();
    const auto materialized = study::run_study(cfg);
    std::vector<capture::LogFramingSink> framers(study::kNumVantagePoints);
    std::vector<capture::FlowSink*> sinks;
    for (auto& f : framers) sinks.push_back(&f);
    study::StudyDeployment dep(cfg);
    study::TraceDriver driver(dep);
    driver.set_flow_sinks(std::move(sinks));
    const auto streamed = driver.run();
    for (std::size_t i = 0; i < framers.size(); ++i) {
        EXPECT_EQ(streamed.datasets[i].name, materialized.traces.datasets[i].name);
        EXPECT_TRUE(streamed.datasets[i].records.empty()) << i;
        const capture::LogPieces pieces = framers[i].finish();
        std::string log;
        for (const auto& piece : pieces) {
            EXPECT_LE(piece.size(), capture::kLogFrameBytes) << i;
            log += piece;
        }
        EXPECT_EQ(log, capture::write_binary_log_bytes(
                           materialized.traces.datasets[i].records))
            << i;
    }
}

TEST(TraceDriver, RejectsSinkCountMismatch) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    driver.set_flow_sinks({nullptr});
    EXPECT_THROW((void)driver.run(ytcdn::sim::kDay), std::invalid_argument);
}

}  // namespace
