#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/fault_injector.hpp"

namespace ytcdn::study {

/// Global knobs of the reproduction study. Everything scales off `scale`,
/// the trace-volume factor relative to the paper's Table I (scale = 1.0
/// regenerates the paper's magnitudes; tests run much smaller).
struct StudyConfig {
    std::uint64_t seed = 0xCDA1'2011ull;

    /// Trace volume factor vs the paper's datasets.
    double scale = 0.10;

    /// Worker threads for the parallel stages around the event simulation
    /// (whose events stay on one lane): the request draws and DPI beside
    /// it, per-VP map building, CBG geolocation, report rendering.
    /// 0 = YTCDN_THREADS env / hardware_concurrency; 1 = exact serial
    /// execution. Output is bit-identical at any value.
    int threads = 0;

    /// Videos in the catalog. 0 = derive from scale (≈400k at scale 1,
    /// floor 20k), approximating the paper's 2.4M distinct videos across
    /// the five datasets.
    std::size_t catalog_size = 0;

    /// Zipf popularity exponent.
    double zipf_exponent = 0.8;

    /// Fraction of the catalog (by rank) replicated at every data center;
    /// the rest is "sparse" content living only at its origin copies.
    double replicate_fraction = 0.85;
    int origin_replicas = 2;
    /// Bound on miss-pulled videos per data center (0 = unbounded; the
    /// one-week horizon never needs eviction, but churn what-ifs do).
    std::size_t max_pulled_per_dc = 0;

    /// Per-server concurrent-flow capacity. 0 = derive from scale.
    int server_capacity = 0;

    /// Share of DNS resolutions answered with a second/third-ranked data
    /// center (ambient DNS-level balancing noise).
    double p_dns_secondary_eu1 = 0.045;
    double p_dns_secondary_us = 0.020;

    /// Residual resolutions toward legacy infrastructure (Table II). EU2's
    /// larger share plus full-quality legacy streams reproduce the paper's
    /// EU2 oddity of 10.4% of bytes still arriving from the YouTube-EU AS.
    double p_legacy_youtube = 0.020;
    double p_legacy_youtube_eu2 = 0.095;
    double p_other_as = 0.004;

    /// Share of requests drawn to the promoted "video of the day".
    double p_promoted = 0.08;

    /// EU2 in-ISP data center: sustainable resolution rate as a multiple of
    /// EU2's mean session rate (sets where the Fig. 11 day/night split
    /// lands: ~0.65 puts the busy-hour local share near 30%).
    double eu2_local_rate_factor = 0.62;

    /// What-if from Section VI-B: "in a more recent dataset collected in
    /// February 2011, we found that the majority of US-Campus video
    /// requests are directed to a data center with an RTT of more than
    /// 100 ms and not to the closest data center, which is around 30 ms
    /// away". When set, the authoritative DNS maps US-Campus to Mountain
    /// View (>100 ms on an inflated path) even though much closer data
    /// centers exist — RTT is a factor, not the rule.
    bool feb2011_us_shift = false;

    /// Scripted component failures injected during the trace (empty = the
    /// healthy baseline; every fault is strictly opt-in). Targets are data
    /// center cities, server hostnames and resolver names. See
    /// sim::FaultSchedule::parse for the text format the CLI accepts.
    sim::FaultSchedule fault_schedule;

    /// Report-artifact fault isolation. By default a single failing
    /// artifact is replaced with a placeholder naming the failure and the
    /// other artifacts still render; with strict artifacts the first
    /// failure propagates (fail-fast — what CI wants so a regression is a
    /// red build, not a quietly degraded report).
    bool strict_artifacts = false;

    /// Derived values.
    [[nodiscard]] std::size_t effective_threads() const;
    /// strict_artifacts, or the YTCDN_STRICT_ARTIFACTS=1 environment
    /// override (set in CI).
    [[nodiscard]] bool effective_strict_artifacts() const;
    [[nodiscard]] std::size_t effective_catalog_size() const;
    [[nodiscard]] int effective_server_capacity() const;
    [[nodiscard]] std::size_t replicate_top_ranks() const;
};

/// Per-vantage-point targets taken from the paper's Table I.
struct VantageTargets {
    const char* name;
    std::uint64_t flows;     // Table I "YouTube flows"
    std::uint64_t clients;   // Table I "#Clients"
};

/// The five datasets, in the paper's order.
inline constexpr VantageTargets kPaperTargets[] = {
    {"US-Campus", 874'649, 20'443},
    {"EU1-Campus", 134'789, 1'113},
    {"EU1-ADSL", 877'443, 8'348},
    {"EU1-FTTH", 91'955, 997},
    {"EU2", 513'403, 6'552},
};
inline constexpr std::size_t kNumVantagePoints = 5;

/// Average flows per session used to convert Table I flow counts into
/// session arrival rates (sessions spawn 1.2-1.35 flows on average).
inline constexpr double kFlowsPerSession = 1.28;

/// Seconds in the paper's one-week capture.
inline constexpr double kTraceSeconds = 604'800.0;

[[nodiscard]] double mean_sessions_per_s(const VantageTargets& t, double scale);

/// Stable hash of every StudyConfig field that shapes the simulated week
/// (seed, scale, catalog/capacity/probability knobs...). Doubles contribute
/// their exact bit pattern, so any representable change changes the key.
/// It deliberately excludes `threads` (thread count never changes outputs),
/// `strict_artifacts` and the fault schedule: runs with a schedule write no
/// checkpoints (see Supervisor). Every YCK1 key of a study run, the bench
/// trace cache's file name and the manifest's fingerprint line derive from
/// it, so its inputs and salt are part of those formats.
[[nodiscard]] std::uint64_t config_fingerprint(const StudyConfig& config);

}  // namespace ytcdn::study
