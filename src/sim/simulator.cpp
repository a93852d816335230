#include "sim/simulator.hpp"

#include <cmath>

namespace ytcdn::sim {

void Simulator::run_until(SimTime horizon) {
    while (!queue_.empty() && queue_.next_time() <= horizon) {
        SimTime t = 0.0;
        auto task = queue_.pop(t);
        now_ = t;
        ++processed_;
        task();
    }
    // run() passes +infinity; the clock stays at the last event then.
    if (std::isfinite(horizon) && horizon > now_) now_ = horizon;
}

}  // namespace ytcdn::sim
