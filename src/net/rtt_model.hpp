#pragma once

#include <cstdint>
#include <random>
#include <unordered_map>

#include "geo/geo_point.hpp"

namespace ytcdn::net {

/// A site attached to the network: anything with a position and a last-mile.
///
/// `id` must be stable and unique per site; it seeds the deterministic
/// per-path routing inflation (so the same pair of sites always sees the
/// same path "shape", as real routes do over a week).
struct NetSite {
    std::uint64_t id = 0;
    geo::GeoPoint location;
    /// Round-trip contribution of the access link (e.g. ~15 ms for ADSL,
    /// ~2 ms for FTTH, ~1 ms for campus/data-center LANs).
    double access_rtt_ms = 1.0;
};

/// A latency model for the simulated Internet.
///
/// The minimum RTT between two sites is
///   prop(distance) * inflation(path) + access(a) + access(b) + overhead,
/// where `inflation` is a deterministic per-path factor in
/// [min_inflation, max_inflation] modelling routing stretch (paths do not
/// follow great circles). Individual measurements add positive jitter.
///
/// The inflation term is what lets the reproduction decouple RTT from
/// geographic distance — the paper's Fig. 7 vs Fig. 8 contrast (for
/// US-Campus the five geographically closest data centers carry <2% of the
/// bytes because their routes are inflated).
class RttModel {
public:
    struct Config {
        /// RTT per km of great-circle distance at light speed in fiber
        /// (~2/3 c one way, doubled for the round trip): 0.01 ms/km.
        double ms_per_km = 0.01;
        /// Fixed per-path processing/serialization overhead (round trip).
        double base_overhead_ms = 0.5;
        /// Range of the deterministic routing-inflation factor.
        double min_inflation = 1.10;
        double max_inflation = 1.90;
        /// Maximum of the deterministic additive per-path noise (peering /
        /// last-hop variance, in ms). This is what keeps delay-based
        /// geolocation from being unrealistically sharp: it inflates CBG
        /// confidence regions into the paper's tens-to-hundreds-of-km range.
        /// Paths with an explicit inflation override carry no noise.
        double max_path_noise_ms = 1.5;
        /// Mean of the exponential per-measurement jitter.
        double jitter_mean_ms = 1.0;
    };

    RttModel() : RttModel(Config{}) {}
    explicit RttModel(const Config& config);

    [[nodiscard]] const Config& config() const noexcept { return config_; }

    /// Forces the inflation factor for the (unordered) pair of site ids.
    /// The study deployment uses this to pin down the paper's anecdotes
    /// (e.g. the preferred data center having the lowest RTT despite not
    /// being the closest).
    void set_inflation(std::uint64_t a, std::uint64_t b, double factor);

    /// The routing-inflation factor for the pair: the override if set,
    /// otherwise a deterministic hash-derived value in the configured range.
    [[nodiscard]] double inflation(std::uint64_t a, std::uint64_t b) const noexcept;

    /// The minimum achievable RTT between two sites, in ms. Deterministic:
    /// for distinct sites it is with_access_ms(path_rtt_ms(a, b), a, b).
    [[nodiscard]] double base_rtt_ms(const NetSite& a, const NetSite& b) const noexcept;

    /// The wide-area term of base_rtt_ms for distinct sites: inflated
    /// propagation plus the per-path noise. It depends only on the two ids
    /// and locations, so a caller that holds one end fixed may keep it per
    /// far end and add each flow's access links with with_access_ms.
    [[nodiscard]] double path_rtt_ms(const NetSite& a, const NetSite& b) const noexcept;

    /// Adds both access links and the fixed overhead to a path term, in
    /// base_rtt_ms's order, so the sum has the same bits.
    [[nodiscard]] double with_access_ms(double path_ms, const NetSite& a,
                                        const NetSite& b) const noexcept {
        return path_ms + a.access_rtt_ms + b.access_rtt_ms + config_.base_overhead_ms;
    }

    /// One RTT measurement: base_rtt_ms plus jitter_ms.
    [[nodiscard]] double sample_rtt_ms(const NetSite& a, const NetSite& b,
                                       std::mt19937_64& rng) const;

    /// One draw of the positive exponential per-measurement jitter.
    [[nodiscard]] double jitter_ms(std::mt19937_64& rng) const;

private:
    [[nodiscard]] static std::uint64_t pair_key(std::uint64_t a, std::uint64_t b) noexcept;

    Config config_;
    std::unordered_map<std::uint64_t, double> inflation_overrides_;
};

}  // namespace ytcdn::net
