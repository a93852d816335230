#pragma once

#include <utility>
#include <vector>

#include "capture/dataset.hpp"
#include "capture/flow_sink.hpp"
#include "sim/simulator.hpp"
#include "sim/tracer.hpp"
#include "study/deployment.hpp"
#include "workload/player.hpp"

namespace ytcdn::util {
class ThreadPool;
}  // namespace ytcdn::util

namespace ytcdn::study {

/// Everything a trace run produces, per vantage point.
struct TraceOutputs {
    std::vector<capture::Dataset> datasets;         // one per vantage point
    std::vector<workload::Player::Stats> player_stats;
    std::vector<std::uint64_t> requests_generated;
    /// Total flows the sniffer saw on the wire and how many the DPI
    /// classifier rejected, per vantage point.
    std::vector<std::uint64_t> flows_observed;
    std::vector<std::uint64_t> flows_ignored;
    std::uint64_t events_processed = 0;
    /// Fault events injected from the config's schedule (0 on baselines).
    std::uint64_t faults_injected = 0;
};

/// Runs the paper's capture campaign: all five vantage points generate
/// traffic against the shared CDN on one discrete-event simulator (server
/// load and cache state are global, as in reality), while a Tstat-like
/// sniffer at each edge records its own dataset.
///
/// Every event runs on one lane, in (time, sequence) order. The work that
/// is not coupled to the CDN runs beside it on the caller's pool
/// (DESIGN.md §16.1): the request draws ahead of the event loop, and DPI
/// plus the flow sinks behind it on the calling thread. Every output byte
/// is the same at every pool size.
class TraceDriver {
public:
    explicit TraceDriver(StudyDeployment& deployment)
        : TraceDriver(deployment, workload::Player::Config{}) {}

    /// Overrides the Flash-player behaviour for every vantage point (DNS
    /// TTL, abort rates, ... — used by the ablation benches).
    TraceDriver(StudyDeployment& deployment, const workload::Player::Config& player_config);

    /// Routes structured sim events to `tracer` (owned by the caller; may
    /// be null to disable). Each vantage point's player streams under its
    /// index; fault injections stream under vantage point 0xFF. Tracing
    /// consumes no randomness, so traced and untraced runs produce
    /// byte-identical datasets.
    void set_tracer(sim::Tracer* tracer) noexcept { tracer_ = tracer; }

    /// Streaming capture: one sink per vantage point (parallel to the
    /// deployment's VP order), called on run()'s calling thread in each
    /// vantage point's emission order. With sinks installed, records are
    /// forwarded instead of accumulating, so the returned datasets are
    /// empty and memory stays bounded at any run length; counters and player
    /// stats are unchanged. Pass an empty vector (the default) to
    /// materialize the datasets.
    void set_flow_sinks(std::vector<capture::FlowSink*> sinks) {
        sinks_ = std::move(sinks);
    }

    /// Simulates `horizon` seconds (default: the paper's one week) on
    /// `pool` and returns the per-vantage-point datasets, sorted by time.
    /// The event loop and the request draws each take a free worker of
    /// `pool` if there is one, and the sinks run on the calling thread. A
    /// pool of size 1, or a call from inside one of its tasks, runs the
    /// same stages as one serial interleave.
    [[nodiscard]] TraceOutputs run(util::ThreadPool& pool,
                                   sim::SimTime horizon = sim::kWeek);
    /// The same run on a pool of one: serial, on the calling thread.
    [[nodiscard]] TraceOutputs run(sim::SimTime horizon = sim::kWeek);

private:
    StudyDeployment* deployment_;
    workload::Player::Config player_config_;
    sim::Tracer* tracer_ = nullptr;
    std::vector<capture::FlowSink*> sinks_;
};

}  // namespace ytcdn::study
