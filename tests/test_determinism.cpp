// Bit-for-bit reproducibility: the whole study — world construction,
// week-long simulation across five vantage points, DNS randomness, player
// behaviour — must be a pure function of the configuration. This is the
// regression guard that makes every EXPERIMENTS.md number trustworthy.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/geo_analysis.hpp"
#include "analysis/loadbalance_analysis.hpp"
#include "analysis/series.hpp"
#include "geo/city.hpp"
#include "geoloc/cbg.hpp"
#include "study/dc_map_builder.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "study/supervisor.hpp"
#include "util/io.hpp"

namespace analysis = ytcdn::analysis;
namespace geo = ytcdn::geo;
namespace geoloc = ytcdn::geoloc;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;

namespace {

study::StudyConfig small_config(std::uint64_t seed = 0xCDA1'2011ull) {
    study::StudyConfig cfg;
    cfg.scale = 0.005;
    cfg.seed = seed;
    return cfg;
}

/// Renders every table and figure series the study emits into one string —
/// the byte-compare target. Any unordered-container iteration or unseeded
/// randomness leaking into the output pipeline shows up here.
std::string render_artifacts(const study::StudyRun& run) {
    std::ostringstream os;
    os << study::make_table1(run).render()
       << study::make_table2(run).render()
       << study::make_failure_table(run).render()
       << study::make_retry_table(run).render();

    std::vector<analysis::Series> series;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto& ds = run.traces.datasets[i];
        series.push_back(analysis::bytes_vs_rtt(ds, run.maps[i]));
        series.push_back(analysis::bytes_vs_distance(ds, run.maps[i]));
        series.push_back({ds.name + " hourly-np",
                          analysis::hourly_non_preferred_fraction(ds, run.maps[i],
                                                                  run.preferred[i])
                              .curve(60)});
    }
    const auto eu2 = run.vp_index("EU2");
    auto hourly = analysis::hourly_preferred_series(run.traces.datasets[eu2],
                                                    run.maps[eu2], run.preferred[eu2]);
    series.push_back(std::move(hourly.fraction_preferred));
    series.push_back(std::move(hourly.flows_per_hour));
    analysis::write_series(os, series);
    return os.str();
}

/// Table III goes through the full CBG geolocation pipeline (landmarks, probe
/// RNG, region clustering) — rendered with a locator built from scratch so the
/// whole path is covered, not a shared calibration.
std::string render_table3(const study::StudyRun& run, const study::StudyConfig& cfg) {
    geoloc::LandmarkCounts counts;
    counts.north_america = 24;
    counts.europe = 24;
    counts.asia = 8;
    counts.south_america = 3;
    counts.oceania = 2;
    counts.africa = 1;
    geoloc::CbgLocator::Config cbg_cfg;
    cbg_cfg.grid = 48;
    geoloc::CbgLocator locator(
        run.deployment->rtt(),
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(cfg.seed ^ 0x9B), counts),
        cbg_cfg, cfg.seed ^ 0xCB6);
    locator.calibrate();
    std::vector<analysis::ContinentCounts> continent_counts;
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto mapping =
            study::cbg_dc_map(*run.deployment, run.traces.datasets[i], locator,
                              run.deployment->vantage(i), run.deployment->local_as(i));
        continent_counts.push_back(analysis::servers_per_continent(mapping.located));
    }
    return study::make_table3(run, continent_counts).render();
}

TEST(Determinism, ThreadCountInvariance) {
    // The parallel layer is an execution detail: the full pipeline — study
    // run, per-VP map derivation, every report artifact including the CBG
    // pipeline behind Table III — must render byte-identical output whether
    // it runs on one thread, two, or eight.
    const auto cfg = small_config();
    study::ReportOptions opts;
    opts.landmarks.north_america = 24;
    opts.landmarks.europe = 24;
    opts.landmarks.asia = 8;
    opts.landmarks.south_america = 3;
    opts.landmarks.oceania = 2;
    opts.landmarks.africa = 1;
    opts.cbg.grid = 48;

    const auto render_at = [&](std::size_t threads) {
        ytcdn::util::ThreadPool pool(threads);
        const auto run = study::run_study(cfg, pool);
        return study::make_full_report(run, pool, opts).render();
    };

    const std::string serial = render_at(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, render_at(2));
    EXPECT_EQ(serial, render_at(8));
}

TEST(Determinism, RenderedArtifactsAreByteIdentical) {
    // The paper-facing outputs — every table and figure series — must be
    // byte-for-byte reproducible, end to end, including the CBG geolocation
    // pipeline behind Table III.
    const auto cfg = small_config();
    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    EXPECT_EQ(render_artifacts(a), render_artifacts(b));
    EXPECT_EQ(render_table3(a, cfg), render_table3(b, cfg));
}

TEST(Determinism, FlowTableEquivalence) {
    // The SoA column-scan path (FlowTable + SessionTable + dc columns) and
    // the AoS record-walk path must render the exact same report bytes —
    // the layout change is a pure optimization, invisible in every
    // artifact. Table III is orthogonal to the flow tables and expensive,
    // so it is excluded here.
    const auto run = study::run_study(small_config());
    study::ReportOptions soa;
    soa.include_table3 = false;
    soa.use_flow_tables = true;
    study::ReportOptions aos = soa;
    aos.use_flow_tables = false;

    const std::string soa_bytes = study::make_full_report(run, soa).render();
    ASSERT_FALSE(soa_bytes.empty());
    EXPECT_EQ(soa_bytes, study::make_full_report(run, aos).render());
}

TEST(Determinism, RenderedArtifactsWithFaultScheduleAreByteIdentical) {
    // Same guarantee under chaos: an outage script changes the numbers but
    // must not introduce any run-to-run variation.
    auto cfg = small_config();
    cfg.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
        "Dallas", 2.0 * ytcdn::sim::kDay, 1.5 * ytcdn::sim::kDay);

    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    const auto artifacts = render_artifacts(a);
    EXPECT_EQ(artifacts, render_artifacts(b));
    // And the schedule demonstrably changed the output vs. the fault-free run.
    EXPECT_NE(artifacts, render_artifacts(study::run_study(small_config())));
}

TEST(Determinism, IdenticalRunsProduceIdenticalTraces) {
    const auto a = study::run_study(small_config());
    const auto b = study::run_study(small_config());

    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    for (std::size_t i = 0; i < a.traces.datasets.size(); ++i) {
        const auto& ra = a.traces.datasets[i].records;
        const auto& rb = b.traces.datasets[i].records;
        ASSERT_EQ(ra.size(), rb.size()) << a.traces.datasets[i].name;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].client_ip, rb[k].client_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].bytes, rb[k].bytes) << i << "/" << k;
            ASSERT_EQ(ra[k].video, rb[k].video) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].start, rb[k].start) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].end, rb[k].end) << i << "/" << k;
        }
    }
    EXPECT_EQ(a.traces.events_processed, b.traces.events_processed);
    EXPECT_EQ(a.preferred, b.preferred);
}

TEST(Determinism, DifferentSeedsProduceDifferentTraces) {
    const auto a = study::run_study(small_config(1));
    const auto b = study::run_study(small_config(2));
    // Same magnitudes...
    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    const auto sa = a.traces.datasets[0].summary();
    const auto sb = b.traces.datasets[0].summary();
    EXPECT_NEAR(static_cast<double>(sa.flows), static_cast<double>(sb.flows),
                static_cast<double>(sa.flows) * 0.2);
    // ...but different flows.
    EXPECT_NE(a.traces.datasets[0].records.front().video,
              b.traces.datasets[0].records.front().video);
}

TEST(Determinism, PlayerStatsAreReproducible) {
    const auto a = study::run_study(small_config());
    const auto b = study::run_study(small_config());
    for (std::size_t i = 0; i < a.traces.player_stats.size(); ++i) {
        EXPECT_EQ(a.traces.player_stats[i].video_flows,
                  b.traces.player_stats[i].video_flows);
        EXPECT_EQ(a.traces.player_stats[i].redirects_miss,
                  b.traces.player_stats[i].redirects_miss);
        EXPECT_EQ(a.traces.player_stats[i].redirects_overload,
                  b.traces.player_stats[i].redirects_overload);
    }
    EXPECT_EQ(a.traces.flows_observed, b.traces.flows_observed);
    EXPECT_EQ(a.traces.flows_ignored, b.traces.flows_ignored);
}

TEST(Determinism, ChaosScheduleIsReproducible) {
    // A fault schedule is part of the configuration: two runs with the same
    // seed and the same outage script must be bit-identical too.
    auto cfg = small_config();
    cfg.fault_schedule = ytcdn::sim::FaultSchedule::dc_outage(
        "Dallas", 2.0 * ytcdn::sim::kDay, 1.5 * ytcdn::sim::kDay);
    cfg.fault_schedule.add(3.0 * ytcdn::sim::kDay,
                           ytcdn::sim::FaultAction::ResolverDown, "eu1-adsl");
    cfg.fault_schedule.add(3.2 * ytcdn::sim::kDay,
                           ytcdn::sim::FaultAction::ResolverUp, "eu1-adsl");

    const auto a = study::run_study(cfg);
    const auto b = study::run_study(cfg);

    EXPECT_EQ(a.traces.faults_injected, 4u);
    EXPECT_EQ(a.traces.faults_injected, b.traces.faults_injected);
    EXPECT_EQ(a.traces.events_processed, b.traces.events_processed);
    ASSERT_EQ(a.traces.datasets.size(), b.traces.datasets.size());
    for (std::size_t i = 0; i < a.traces.datasets.size(); ++i) {
        const auto& ra = a.traces.datasets[i].records;
        const auto& rb = b.traces.datasets[i].records;
        ASSERT_EQ(ra.size(), rb.size()) << a.traces.datasets[i].name;
        for (std::size_t k = 0; k < ra.size(); ++k) {
            ASSERT_EQ(ra[k].server_ip, rb[k].server_ip) << i << "/" << k;
            ASSERT_EQ(ra[k].bytes, rb[k].bytes) << i << "/" << k;
            ASSERT_DOUBLE_EQ(ra[k].start, rb[k].start) << i << "/" << k;
        }
        const auto& sa = a.traces.player_stats[i];
        const auto& sb = b.traces.player_stats[i];
        EXPECT_EQ(sa.connect_timeouts, sb.connect_timeouts) << i;
        EXPECT_EQ(sa.failovers, sb.failovers) << i;
        EXPECT_EQ(sa.dns_servfails, sb.dns_servfails) << i;
        EXPECT_EQ(sa.failures.total(), sb.failures.total()) << i;
        EXPECT_EQ(sa.retry_histogram, sb.retry_histogram) << i;
    }
}

TEST(Determinism, CheckpointResume) {
    // An interrupted supervised run, resumed from its YCK1 checkpoints, must
    // render the byte-identical report an uninterrupted run renders — at one
    // worker thread and at eight. This is the determinism contract behind
    // `ytcdn study --resume`: a crash costs wall time, never correctness.
    namespace fs = std::filesystem;
    const auto report_at = [](int threads, bool interrupt) {
        auto cfg = small_config();
        cfg.threads = threads;
        const auto dir = fs::temp_directory_path() /
                         ("ytcdn_det_resume_t" + std::to_string(threads) +
                          (interrupt ? "_int" : "_ref"));
        fs::remove_all(dir);
        study::SupervisorOptions opt;
        opt.run_dir = dir;
        opt.report.include_table3 = false;
        if (interrupt) {
            // Stop at the geolocate/analyze boundary, then resume: the
            // second run replays simulate+capture+geolocate from disk.
            opt.max_stages = 3;
            auto first = study::Supervisor(cfg, opt).run();
            EXPECT_TRUE(first.ok() && !first.value().completed);
            opt.max_stages = 0;
            opt.resume = true;
        }
        const auto result = study::Supervisor(cfg, opt).run();
        EXPECT_TRUE(result.ok()) << result.error().what();
        const std::string report =
            ytcdn::util::io::read_file(result.value().report_path)
                .value_or_throw();
        fs::remove_all(dir);
        return report;
    };

    const std::string serial = report_at(1, false);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, report_at(1, true));
    EXPECT_EQ(serial, report_at(8, false));
    EXPECT_EQ(serial, report_at(8, true));
}

TEST(Determinism, EmptyScheduleMatchesBaseline) {
    // Faults are strictly opt-in: a config whose schedule is empty must
    // produce the exact run the pre-fault-injection code produced (the
    // health checks and DNS query path consume no extra randomness).
    auto cfg = small_config();
    const auto a = study::run_study(cfg);
    ASSERT_TRUE(cfg.fault_schedule.empty());
    EXPECT_EQ(a.traces.faults_injected, 0u);
    for (const auto& stats : a.traces.player_stats) {
        EXPECT_EQ(stats.connect_timeouts, 0u);
        EXPECT_EQ(stats.connect_resets, 0u);
        EXPECT_EQ(stats.dns_servfails, 0u);
        EXPECT_EQ(stats.stale_dns_answers, 0u);
        EXPECT_EQ(stats.failovers, 0u);
    }
}

}  // namespace
