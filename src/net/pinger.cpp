#include "net/pinger.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace ytcdn::net {

PingStats Pinger::ping(const NetSite& src, const NetSite& dst, int probes) {
    if (probes <= 0) throw std::invalid_argument("probes must be > 0");

    PingStats stats;
    stats.probes = probes;
    double sum = 0.0;
    double sum_sq = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = 0.0;
    // Every probe is sample_rtt_ms(src, dst): the path's base RTT, the same
    // for each, plus a fresh jitter draw.
    const double base = model_->base_rtt_ms(src, dst);
    for (int i = 0; i < probes; ++i) {
        const double rtt = base + model_->jitter_ms(rng_);
        sum += rtt;
        sum_sq += rtt * rtt;
        min = std::min(min, rtt);
        max = std::max(max, rtt);
    }
    stats.min_ms = min;
    stats.max_ms = max;
    stats.avg_ms = sum / probes;
    const double variance = std::max(0.0, sum_sq / probes - stats.avg_ms * stats.avg_ms);
    stats.stddev_ms = std::sqrt(variance);
    return stats;
}

double Pinger::min_rtt_ms(const NetSite& src, const NetSite& dst, int probes) {
    return ping(src, dst, probes).min_ms;
}

}  // namespace ytcdn::net
