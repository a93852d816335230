#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace ytcdn::sim {

/// A minimal discrete-event simulator: a clock plus an event queue.
///
/// Callbacks scheduled with `schedule_at`/`schedule_in` run in timestamp
/// order; each may schedule further events. `run_until` advances the clock
/// to the given horizon even if the queue drains earlier, so back-to-back
/// phases see a consistent notion of "now".
///
/// Scheduling is a template so callables land directly in the event queue's
/// slab blocks — no `std::function` wrapper, no per-event heap allocation.
class Simulator {
public:
    Simulator() = default;

    [[nodiscard]] SimTime now() const noexcept { return now_; }
    [[nodiscard]] std::uint64_t events_processed() const noexcept { return processed_; }
    [[nodiscard]] std::size_t events_pending() const noexcept { return queue_.size(); }

    /// Schedules a callback at an absolute time, which must be >= now().
    template <typename F>
    void schedule_at(SimTime time, F&& callback) {
        if (!(time >= now_)) {
            throw std::invalid_argument("Simulator::schedule_at: time is in the past");
        }
        queue_.push(time, std::forward<F>(callback));
    }

    /// Schedules a callback `delay` seconds from now (delay >= 0).
    template <typename F>
    void schedule_in(SimTime delay, F&& callback) {
        if (!(delay >= 0.0)) {
            throw std::invalid_argument("Simulator::schedule_in: negative delay");
        }
        queue_.push(now_ + delay, std::forward<F>(callback));
    }

    /// Runs events with timestamp <= horizon; leaves now() == horizon.
    void run_until(SimTime horizon);

    /// Runs until the queue is empty.
    void run() { run_until(std::numeric_limits<SimTime>::infinity()); }

private:
    EventQueue queue_;
    SimTime now_ = 0.0;
    std::uint64_t processed_ = 0;
};

}  // namespace ytcdn::sim
