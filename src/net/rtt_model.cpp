#include "net/rtt_model.hpp"

#include <stdexcept>
#include <utility>

namespace ytcdn::net {

namespace {

/// SplitMix64 finalizer: a strong 64-bit mix with good avalanche behaviour.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace

RttModel::RttModel(const Config& config) : config_(config) {
    if (config_.ms_per_km <= 0.0) throw std::invalid_argument("ms_per_km must be > 0");
    if (config_.min_inflation < 1.0 || config_.max_inflation < config_.min_inflation) {
        throw std::invalid_argument("inflation range must satisfy 1 <= min <= max");
    }
    if (config_.jitter_mean_ms < 0.0) {
        throw std::invalid_argument("jitter_mean_ms must be >= 0");
    }
}

std::uint64_t RttModel::pair_key(std::uint64_t a, std::uint64_t b) noexcept {
    if (a > b) std::swap(a, b);
    return mix64(mix64(a) ^ (b + 0x9E3779B97F4A7C15ull));
}

void RttModel::set_inflation(std::uint64_t a, std::uint64_t b, double factor) {
    if (factor < 1.0) throw std::invalid_argument("inflation factor must be >= 1");
    inflation_overrides_[pair_key(a, b)] = factor;
}

double RttModel::inflation(std::uint64_t a, std::uint64_t b) const noexcept {
    const std::uint64_t key = pair_key(a, b);
    if (const auto it = inflation_overrides_.find(key); it != inflation_overrides_.end()) {
        return it->second;
    }
    // Uniform in [min_inflation, max_inflation], derived from the pair hash.
    const double u =
        static_cast<double>(mix64(key) >> 11) / static_cast<double>(1ull << 53);
    return config_.min_inflation + u * (config_.max_inflation - config_.min_inflation);
}

double RttModel::base_rtt_ms(const NetSite& a, const NetSite& b) const noexcept {
    if (a.id == b.id) return a.access_rtt_ms;  // loopback within a site
    return with_access_ms(path_rtt_ms(a, b), a, b);
}

double RttModel::path_rtt_ms(const NetSite& a, const NetSite& b) const noexcept {
    const double distance = geo::distance_km(a.location, b.location);
    // Overridden paths are fully specified by their inflation factor; all
    // other paths carry a deterministic additive peering-noise term.
    const std::uint64_t key = pair_key(a.id, b.id);
    double noise = 0.0;
    if (!inflation_overrides_.contains(key)) {
        const double u = static_cast<double>(mix64(key ^ 0x5157ull) >> 11) /
                         static_cast<double>(1ull << 53);
        // Right-skewed (u^2): most paths are clean, a minority carries
        // noticeable peering detours — matching the long tail of CBG
        // confidence radii in the paper's Fig. 3.
        noise = u * u * 2.0 * config_.max_path_noise_ms;
    }
    return distance * config_.ms_per_km * inflation(a.id, b.id) + noise;
}

double RttModel::sample_rtt_ms(const NetSite& a, const NetSite& b,
                               std::mt19937_64& rng) const {
    return base_rtt_ms(a, b) + jitter_ms(rng);
}

double RttModel::jitter_ms(std::mt19937_64& rng) const {
    if (config_.jitter_mean_ms <= 0.0) return 0.0;
    std::exponential_distribution<double> jitter(1.0 / config_.jitter_mean_ms);
    return jitter(rng);
}

}  // namespace ytcdn::net
