#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace ytcdn::sim {

/// Simulation time, in seconds since trace start (local midnight at each
/// vantage point per the paper's collection setup). Double precision gives
/// sub-microsecond resolution over the one-week horizon.
using SimTime = double;

inline constexpr SimTime kSecond = 1.0;
inline constexpr SimTime kMinute = 60.0;
inline constexpr SimTime kHour = 3600.0;
inline constexpr SimTime kDay = 24.0 * kHour;
inline constexpr SimTime kWeek = 7.0 * kDay;

/// Index of the one-hour slot containing `t` (the paper's time-series and
/// Fig. 9 bucketing granularity).
[[nodiscard]] constexpr std::int64_t hour_index(SimTime t) noexcept {
    return static_cast<std::int64_t>(t / kHour);
}

/// The slot of `t`'s hour in a per-hour tally, growing `hours` with
/// value-initialised (zero / empty) slots up to it.
template <class T>
[[nodiscard]] T& hour_slot(std::vector<T>& hours, SimTime t) {
    const auto hour = static_cast<std::size_t>(hour_index(t));
    if (hour >= hours.size()) hours.resize(hour + 1);
    return hours[hour];
}

/// Hour-of-day in [0, 24), given an offset of the local clock vs trace time.
[[nodiscard]] inline double hour_of_day(SimTime t) noexcept {
    const double h = std::fmod(t, kDay) / kHour;
    return h < 0.0 ? h + 24.0 : h;
}

/// Day index since trace start (day 0 = first day).
[[nodiscard]] constexpr std::int64_t day_index(SimTime t) noexcept {
    return static_cast<std::int64_t>(t / kDay);
}

/// Formats as "DdHH:MM:SS", e.g. 93784.0 -> "1d02:03:04".
[[nodiscard]] std::string format_time(SimTime t);

}  // namespace ytcdn::sim
