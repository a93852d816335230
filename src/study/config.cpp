#include "study/config.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "sim/random.hpp"
#include "util/parallel.hpp"

namespace ytcdn::study {

std::size_t StudyConfig::effective_threads() const {
    return threads > 0 ? static_cast<std::size_t>(threads)
                       : util::default_thread_count();
}

bool StudyConfig::effective_strict_artifacts() const {
    if (strict_artifacts) return true;
    const char* env = std::getenv("YTCDN_STRICT_ARTIFACTS");
    return env != nullptr && std::strcmp(env, "1") == 0;
}

std::size_t StudyConfig::effective_catalog_size() const {
    if (catalog_size != 0) return catalog_size;
    return std::max<std::size_t>(
        20'000, static_cast<std::size_t>(std::llround(400'000.0 * scale)));
}

int StudyConfig::effective_server_capacity() const {
    if (server_capacity != 0) return server_capacity;
    return std::max(2, static_cast<int>(std::llround(8.0 * scale + 2.0)));
}

std::size_t StudyConfig::replicate_top_ranks() const {
    return static_cast<std::size_t>(
        std::llround(replicate_fraction * static_cast<double>(effective_catalog_size())));
}

double mean_sessions_per_s(const VantageTargets& t, double scale) {
    return static_cast<double>(t.flows) * scale / kFlowsPerSession / kTraceSeconds;
}

std::uint64_t config_fingerprint(const StudyConfig& config) {
    // The salt is part of every key derived from this hash: never change it.
    std::uint64_t h = 0x5953'5332'2011ull;
    const auto mix = [&h](std::uint64_t x) { h = sim::mix64(h ^ sim::mix64(x)); };
    const auto mix_f64 = [&mix](double x) { mix(std::bit_cast<std::uint64_t>(x)); };
    mix(config.seed);
    mix_f64(config.scale);
    mix(config.catalog_size);
    mix_f64(config.zipf_exponent);
    mix_f64(config.replicate_fraction);
    mix(static_cast<std::uint64_t>(config.origin_replicas));
    mix(config.max_pulled_per_dc);
    mix(static_cast<std::uint64_t>(config.server_capacity));
    mix_f64(config.p_dns_secondary_eu1);
    mix_f64(config.p_dns_secondary_us);
    mix_f64(config.p_legacy_youtube);
    mix_f64(config.p_legacy_youtube_eu2);
    mix_f64(config.p_other_as);
    mix_f64(config.p_promoted);
    mix_f64(config.eu2_local_rate_factor);
    mix(config.feb2011_us_shift ? 1 : 0);
    return h;
}

}  // namespace ytcdn::study
