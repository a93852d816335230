#include "study/trace_driver.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <vector>

#include "analysis/session.hpp"
#include "capture/binary_log.hpp"
#include "net/as_registry.hpp"
#include "sim/fault_injector.hpp"
#include "sim/tracer.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "study/supervisor.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "workload/request_generator.hpp"

namespace study = ytcdn::study;
namespace workload = ytcdn::workload;
namespace analysis = ytcdn::analysis;
namespace net = ytcdn::net;
namespace cdn = ytcdn::cdn;
namespace capture = ytcdn::capture;
namespace sim = ytcdn::sim;
namespace util = ytcdn::util;

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

// ---- Pipelined runs: the same bytes at every pool size ------------------

/// Everything a run leaves behind, as bytes: each dataset's YFL2 log, each
/// framing sink's log and CRC, every counter, the tracer's events and the
/// metrics snapshot.
struct RunBytes {
    std::vector<std::string> datasets;
    std::vector<std::string> framed;
    std::vector<std::uint32_t> framed_crc;
    std::string counters;
    std::string trace;
    std::string metrics;
};

std::string counters_of(const study::TraceOutputs& out) {
    std::ostringstream os;
    os << "events " << out.events_processed << " faults " << out.faults_injected << "\n";
    for (std::size_t i = 0; i < out.datasets.size(); ++i) {
        const auto& s = out.player_stats[i];
        os << out.datasets[i].name << " observed " << out.flows_observed[i]
           << " ignored " << out.flows_ignored[i] << " requests "
           << out.requests_generated[i] << " sessions " << s.sessions << " video "
           << s.video_flows << " control " << s.control_flows << " miss "
           << s.redirects_miss << " overload " << s.redirects_overload << " probes "
           << s.resolution_probes << " pauses " << s.pauses << " dns_hits "
           << s.dns_cache_hits << " timeouts " << s.connect_timeouts << " resets "
           << s.connect_resets << " servfails " << s.dns_servfails << " stale "
           << s.stale_dns_answers << " failovers " << s.failovers << " failures "
           << s.failures.timeout << "/" << s.failures.reset << "/"
           << s.failures.dns_failure << "/" << s.failures.retries_exhausted << "/"
           << s.failures.redirect_exhausted << " retries";
        for (const auto k : s.retry_histogram) os << " " << k;
        os << "\n";
    }
    return os.str();
}

/// Two runs of `cfg` on `pool`: one materialized and traced, one through
/// framing sinks. With `from_task`, both run from inside a pool task.
RunBytes run_bytes(const study::StudyConfig& cfg, util::ThreadPool& pool,
                   bool from_task, sim::SimTime horizon = sim::kWeek) {
    RunBytes out;
    auto& registry = util::metrics::Registry::global();
    const auto body = [&] {
        registry.reset();
        study::StudyDeployment dep(cfg);
        sim::Tracer tracer;
        study::TraceDriver driver(dep);
        driver.set_tracer(&tracer);
        const auto materialized = driver.run(pool, horizon);
        out.metrics = registry.snapshot().render();
        out.counters = counters_of(materialized);
        out.trace = sim::write_trace_bytes(tracer.log());
        for (const auto& ds : materialized.datasets) {
            out.datasets.push_back(capture::write_binary_log_bytes(ds.records));
        }

        study::StudyDeployment dep2(cfg);
        std::vector<capture::LogFramingSink> framers(dep2.num_vantage_points());
        std::vector<capture::FlowSink*> sinks;
        for (auto& f : framers) sinks.push_back(&f);
        study::TraceDriver framing(dep2);
        framing.set_flow_sinks(std::move(sinks));
        const auto streamed = framing.run(pool, horizon);
        EXPECT_EQ(counters_of(streamed), out.counters);
        for (auto& f : framers) {
            const capture::LogPieces pieces = f.finish();
            std::string log;
            for (const auto& piece : pieces) log += piece;
            out.framed.push_back(std::move(log));
            out.framed_crc.push_back(capture::log_crc32(pieces));
        }
    };
    if (from_task) {
        pool.run_indexed(2, [&](std::size_t i) {
            if (i == 0) body();
        });
    } else {
        body();
    }
    return out;
}

void expect_same(const RunBytes& got, const RunBytes& want, const std::string& label) {
    EXPECT_EQ(got.datasets, want.datasets) << label;
    EXPECT_EQ(got.framed, want.framed) << label;
    EXPECT_EQ(got.framed_crc, want.framed_crc) << label;
    EXPECT_EQ(got.counters, want.counters) << label;
    EXPECT_EQ(got.trace, want.trace) << label;
}

TEST(TraceDriverPipeline, EveryPoolSizeGivesTheSerialBytes) {
    for (const bool faults : {false, true}) {
        auto cfg = tiny_config();
        if (faults) {
            cfg.fault_schedule = sim::FaultSchedule::dc_outage("Dallas", 6 * sim::kHour,
                                                               12 * sim::kHour);
        }
        util::ThreadPool serial(1);
        const RunBytes want = run_bytes(cfg, serial, false);
        ASSERT_FALSE(want.trace.empty());
        if (faults) {
            EXPECT_NE(want.counters.find("faults 2"), std::string::npos) << want.counters;
        }
        for (const std::size_t size : {1u, 2u, 3u, 4u, 8u}) {
            util::ThreadPool pool(size);
            const std::string label =
                "size " + std::to_string(size) + (faults ? " with faults" : "");
            const RunBytes got = run_bytes(cfg, pool, false);
            expect_same(got, want, label);
            // Every metric counts logical work, util.pool.* included.
            EXPECT_EQ(got.metrics, want.metrics) << label;
            expect_same(run_bytes(cfg, pool, true), want, label + " from a task");
        }
        // The pool-less run is the pool of one.
        study::StudyDeployment dep(cfg);
        study::TraceDriver driver(dep);
        sim::Tracer tracer;
        driver.set_tracer(&tracer);
        EXPECT_EQ(counters_of(driver.run()), want.counters);
        EXPECT_EQ(sim::write_trace_bytes(tracer.log()), want.trace);
    }
}

TEST(TraceDriverPipeline, HorizonsEndingAtAndInsideARequestBlock) {
    // The first vantage point's arrival times, drawn as its generator
    // draws them. A horizon at arrival k leaves exactly k requests: at
    // k = kBlock the last block is exactly full, at 300 it ends mid-way.
    const auto cfg = tiny_config();
    study::StudyDeployment dep(cfg);
    const auto& vp = dep.vantage(0);
    workload::RequestDraws draws(
        vp, dep.catalog(), {},
        dep.root_rng().fork("trace-driver").fork("generator-" + vp.name), nullptr);
    draws.begin(0.0, sim::kWeek);
    std::vector<workload::RequestDraw> arrivals;
    draws.fill(arrivals, 2 * workload::RequestDraws::kBlock + 1);
    ASSERT_EQ(arrivals.size(), 2 * workload::RequestDraws::kBlock + 1);

    for (const std::size_t k :
         {workload::RequestDraws::kBlock, std::size_t{300},
          2 * workload::RequestDraws::kBlock}) {
        const sim::SimTime horizon = arrivals[k].time;
        util::ThreadPool serial(1);
        const RunBytes want = run_bytes(cfg, serial, false, horizon);
        EXPECT_EQ(want.counters.find(vp.name + " observed"),
                  want.counters.find("\n") + 1);
        EXPECT_NE(want.counters.find(" requests " + std::to_string(k) + " "),
                  std::string::npos)
            << k << "\n" << want.counters;
        util::ThreadPool pool(4);
        expect_same(run_bytes(cfg, pool, false, horizon), want,
                    "horizon at arrival " + std::to_string(k));
    }
}

/// Forwards to a framing sink and throws on its `fail_at`-th record.
struct ThrowingSink final : capture::FlowSink {
    explicit ThrowingSink(std::uint64_t at) : fail_at(at) {}
    void on_flow(const capture::FlowRecord& record) override {
        if (++seen == fail_at) throw std::runtime_error("sink failed");
        inner.on_flow(record);
    }
    std::uint64_t fail_at;
    std::uint64_t seen = 0;
    capture::LogFramingSink inner;
};

TEST(TraceDriverPipeline, SinkAndEventLaneFailuresAreRethrown) {
    for (const std::size_t size : {1u, 4u}) {
        util::ThreadPool pool(size);
        {
            study::StudyDeployment dep(tiny_config());
            std::vector<ThrowingSink> sinks;
            sinks.reserve(dep.num_vantage_points());
            std::vector<capture::FlowSink*> ptrs;
            for (std::size_t i = 0; i < dep.num_vantage_points(); ++i) {
                sinks.emplace_back(i == 2 ? 500 : 0);
                ptrs.push_back(&sinks.back());
            }
            study::TraceDriver driver(dep);
            driver.set_flow_sinks(std::move(ptrs));
            try {
                (void)driver.run(pool);
                ADD_FAILURE() << "sink failure not rethrown at size " << size;
            } catch (const std::runtime_error& e) {
                EXPECT_STREQ(e.what(), "sink failed") << size;
            }
            EXPECT_EQ(sinks[2].seen, 500u) << size;
        }
        {
            // A fault aimed at a city the deployment lacks throws from its
            // handler, on the event lane, when it fires.
            auto cfg = tiny_config();
            cfg.fault_schedule =
                sim::FaultSchedule::dc_outage("Atlantis", sim::kDay, sim::kHour);
            study::StudyDeployment dep(cfg);
            study::TraceDriver driver(dep);
            try {
                (void)driver.run(pool);
                ADD_FAILURE() << "event-lane failure not rethrown at size " << size;
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find("Atlantis"), std::string::npos);
            }
        }
        // The pool is whole afterwards.
        const auto out =
            util::parallel_map_indexed(pool, 32, [](std::size_t i) { return i + 1; });
        for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
    }
}

TEST(TraceDriverPipeline, SupervisedSimulateRetriesAFailedPipeline) {
    // The supervised Simulate stage's ladder (run_supervised) over a run
    // whose first attempt dies in a sink: the retry, on the same pool,
    // builds the week that renders the reference report.
    const auto cfg = tiny_config();
    study::ReportOptions report_options;
    report_options.include_table3 = false;
    util::ThreadPool pool(4);
    const std::string want =
        study::make_full_report(study::run_study(cfg, pool), pool, report_options)
            .render();

    int attempt = 0;
    study::TraceOutputs traces;
    std::vector<capture::LogPieces> week;
    study::StagePolicy policy;
    policy.attempts = 2;
    const auto outcome = study::run_supervised("simulate", policy, [&] {
        ++attempt;
        study::StudyDeployment dep(cfg);
        std::vector<ThrowingSink> sinks;
        sinks.reserve(dep.num_vantage_points());
        std::vector<capture::FlowSink*> ptrs;
        for (std::size_t i = 0; i < dep.num_vantage_points(); ++i) {
            sinks.emplace_back(attempt == 1 && i == 0 ? 100 : 0);
            ptrs.push_back(&sinks.back());
        }
        study::TraceDriver driver(dep);
        driver.set_flow_sinks(std::move(ptrs));
        traces = driver.run(pool);
        week.clear();
        for (auto& sink : sinks) week.push_back(sink.inner.finish());
    });
    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.attempts, 2);
    EXPECT_EQ(outcome.error, "sink failed");
    const auto run =
        study::assemble_study_run(cfg, std::move(traces), pool, std::move(week));
    EXPECT_EQ(study::make_full_report(run, pool, report_options).render(), want);
}

TEST(TraceDriver, RejectsSinkCountMismatch) {
    study::StudyDeployment deployment(tiny_config());
    study::TraceDriver driver(deployment);
    driver.set_flow_sinks({nullptr});
    EXPECT_THROW((void)driver.run(ytcdn::sim::kDay), std::invalid_argument);
}

}  // namespace
