#include "sim/zipf.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace ytcdn::sim {

ZipfDistribution::ZipfDistribution(std::size_t n, double s) : s_(s) {
    if (n == 0) throw std::invalid_argument("ZipfDistribution: n must be > 0");
    if (s < 0.0) throw std::invalid_argument("ZipfDistribution: s must be >= 0");
    std::vector<double> cdf(n);
    double acc = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
        cdf[k] = acc;
    }
    for (auto& v : cdf) v /= acc;
    cdf.back() = 1.0;  // guard against rounding
    cdf_ = GuidedCdf(std::move(cdf));
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
    return cdf_.lower_bound(rng.uniform01());
}

double ZipfDistribution::pmf(std::size_t rank) const {
    if (rank >= cdf_.size()) throw std::out_of_range("ZipfDistribution::pmf rank");
    const auto& cdf = cdf_.values();
    return rank == 0 ? cdf[0] : cdf[rank] - cdf[rank - 1];
}

}  // namespace ytcdn::sim
