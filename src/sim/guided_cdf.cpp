#include "sim/guided_cdf.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

namespace ytcdn::sim {

GuidedCdf::GuidedCdf(std::vector<double> values) : values_(std::move(values)) {
    if (values_.size() >= std::numeric_limits<std::uint32_t>::max()) {
        throw std::length_error("GuidedCdf: too many values");
    }
    if (values_.empty()) return;
    const double total = values_.back();
    scale_ = total > 0.0 ? static_cast<double>(values_.size()) / total : 0.0;
    guide_.resize(values_.size());
    std::size_t i = 0;
    for (std::size_t j = 0; j < guide_.size(); ++j) {
        while (i < values_.size() && bucket(values_[i]) < j) ++i;
        guide_[j] = static_cast<std::uint32_t>(i);
    }
}

std::size_t GuidedCdf::bucket(double v) const noexcept {
    // Monotone in v: a value >= u never lands in an earlier bucket than u.
    const double x = v * scale_;
    if (!(x > 0.0)) return 0;
    const auto last = guide_.size() - 1;
    return x >= static_cast<double>(last) ? last : static_cast<std::size_t>(x);
}

std::size_t GuidedCdf::lower_bound(double u) const noexcept {
    if (values_.empty()) return 0;
    std::size_t i = guide_[bucket(u)];
    while (i < values_.size() && values_[i] < u) ++i;
    return i;
}

}  // namespace ytcdn::sim
