#pragma once

#include <cstdint>
#include <vector>

#include "sim/guided_cdf.hpp"
#include "sim/random.hpp"

namespace ytcdn::sim {

/// Zipf(-like) popularity over ranks 0..n-1: P(rank k) proportional to
/// 1/(k+1)^s. Video popularity in YouTube-scale catalogs is well modelled by
/// Zipf with exponent near 1 (Cha et al., IMC'07, the paper's ref [5]).
///
/// Sampling inverts the precomputed CDF through a guide table (GuidedCdf):
/// the same rank a binary search would return, in O(1) expected steps;
/// memory is one double and one 32-bit guide entry per rank.
class ZipfDistribution {
public:
    /// `n` ranks, exponent `s` >= 0 (s = 0 degenerates to uniform).
    ZipfDistribution(std::size_t n, double s);

    [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
    [[nodiscard]] double exponent() const noexcept { return s_; }

    /// Samples a rank in [0, n).
    [[nodiscard]] std::size_t sample(Rng& rng) const;

    /// The CDF the samples invert: values()[k] = P(rank <= k).
    [[nodiscard]] const GuidedCdf& cdf() const noexcept { return cdf_; }

    /// Probability mass of a rank.
    [[nodiscard]] double pmf(std::size_t rank) const;

private:
    double s_;
    GuidedCdf cdf_;  // cdf_[k] = P(rank <= k), cdf_.back() == 1.
};

}  // namespace ytcdn::sim
