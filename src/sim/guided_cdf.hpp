#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ytcdn::sim {

/// A non-decreasing table of cumulative weights with a Chen–Asau guide
/// table, for inverting a discrete CDF in O(1) expected steps.
///
/// lower_bound(u) returns exactly std::lower_bound(values(), u)'s index for
/// every u: the guide maps u to a bucket with the same monotone function it
/// was built with, so every index before the bucket's start holds a value
/// below u, and a forward scan from there finds the first value >= u.
/// The guide has one 32-bit entry per value.
class GuidedCdf {
public:
    GuidedCdf() = default;
    /// `values` must be non-decreasing and non-negative.
    explicit GuidedCdf(std::vector<double> values);

    [[nodiscard]] std::size_t lower_bound(double u) const noexcept;

    [[nodiscard]] const std::vector<double>& values() const noexcept { return values_; }
    [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
    [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
    [[nodiscard]] double back() const noexcept { return values_.back(); }

private:
    [[nodiscard]] std::size_t bucket(double v) const noexcept;

    std::vector<double> values_;
    std::vector<std::uint32_t> guide_;  // guide_[j]: first index whose bucket >= j
    double scale_ = 0.0;                // buckets per unit of weight
};

}  // namespace ytcdn::sim
