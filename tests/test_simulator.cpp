#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sim = ytcdn::sim;

namespace {

TEST(EventQueue, PopsInTimeOrder) {
    sim::EventQueue q;
    std::vector<int> order;
    q.push(3.0, [&] { order.push_back(3); });
    q.push(1.0, [&] { order.push_back(1); });
    q.push(2.0, [&] { order.push_back(2); });
    while (!q.empty()) {
        sim::SimTime t = 0;
        q.pop(t)();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakFifo) {
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i) {
        q.push(1.0, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) {
        sim::SimTime t = 0;
        q.pop(t)();
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EmptyAccessorsThrow) {
    sim::EventQueue q;
    sim::SimTime t = 0;
    EXPECT_THROW((void)q.next_time(), std::logic_error);
    EXPECT_THROW((void)q.pop(t), std::logic_error);
}

TEST(EventQueue, ClearResets) {
    sim::EventQueue q;
    q.push(1.0, [] {});
    q.clear();
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FiredCallbacksAreDestroyed) {
    // A fired task's captures are destroyed with it: the queue holds no
    // copy of the shared_ptr once run() returns.
    const auto token = std::make_shared<int>(7);
    sim::Simulator s;
    for (int i = 0; i < 3; ++i) s.schedule_at(i, [token] { EXPECT_EQ(*token, 7); });
    std::function<void()> boxed = [token] {};
    s.schedule_at(4.0, boxed);  // std::function: a non-trivial destructor
    boxed = nullptr;
    EXPECT_EQ(token.use_count(), 5);
    s.run();
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueue, ThrowingCallbacksAreDestroyed) {
    const auto token = std::make_shared<int>(7);
    sim::EventQueue q;
    q.push(1.0, [token] { throw std::runtime_error("boom"); });
    q.push(2.0, [token] {});
    EXPECT_EQ(token.use_count(), 3);
    sim::SimTime t = 0;
    EXPECT_THROW(q.pop(t)(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 2);
    q.pop(t)();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, UnfiredCallbacksAreDestroyed) {
    const auto token = std::make_shared<int>(7);
    {
        sim::EventQueue q;
        q.push(1.0, [token] {});
        q.push(2.0, [token] {});
        sim::SimTime t = 0;
        { auto task = q.pop(t); }  // dropped un-invoked
        EXPECT_EQ(token.use_count(), 2);
    }  // the queue's destructor clears the rest
    EXPECT_EQ(token.use_count(), 1);
}

TEST(Simulator, NowAdvancesWithEvents) {
    sim::Simulator s;
    std::vector<double> times;
    s.schedule_at(5.0, [&] { times.push_back(s.now()); });
    s.schedule_at(2.0, [&] { times.push_back(s.now()); });
    s.run();
    EXPECT_EQ(times, (std::vector<double>{2.0, 5.0}));
    EXPECT_EQ(s.events_processed(), 2u);
}

TEST(Simulator, EventsCanScheduleEvents) {
    sim::Simulator s;
    int fired = 0;
    s.schedule_at(1.0, [&] {
        ++fired;
        s.schedule_in(1.0, [&] { ++fired; });
    });
    s.run();
    EXPECT_EQ(fired, 2);
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
    sim::Simulator s;
    int fired = 0;
    s.schedule_at(1.0, [&] { ++fired; });
    s.schedule_at(10.0, [&] { ++fired; });
    s.run_until(5.0);
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(s.now(), 5.0);
    EXPECT_EQ(s.events_pending(), 1u);
    s.run_until(20.0);
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInPastThrows) {
    sim::Simulator s;
    s.schedule_at(2.0, [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(s.schedule_in(-0.5, [] {}), std::invalid_argument);
}

TEST(Simulator, SameTimeAsNowIsAllowed) {
    sim::Simulator s;
    int fired = 0;
    s.schedule_at(1.0, [&] {
        s.schedule_in(0.0, [&] { ++fired; });
    });
    s.run();
    EXPECT_EQ(fired, 1);
}

TEST(Simulator, RandomLoadProcessesInNonDecreasingTimeOrder) {
    // Stress: thousands of events at random times, some rescheduling more;
    // execution order must be globally non-decreasing in time and nothing
    // may be lost.
    sim::Simulator s;
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> when(0.0, 1000.0);
    int fired = 0;
    double last = -1.0;
    const auto check = [&] {
        EXPECT_GE(s.now(), last);
        last = s.now();
        ++fired;
    };
    for (int i = 0; i < 5000; ++i) s.schedule_at(when(rng), check);
    // A self-extending chain interleaved with the random events.
    std::function<void()> chain = [&] {
        check();
        if (s.now() < 900.0) s.schedule_in(10.0, chain);
    };
    s.schedule_at(0.5, chain);
    s.run();
    EXPECT_EQ(fired, 5000 + 91);  // 0.5, 10.5, ..., 900.5
    EXPECT_EQ(s.events_processed(), static_cast<std::uint64_t>(fired));
}

TEST(SimTime, HourAndDayHelpers) {
    EXPECT_EQ(sim::hour_index(0.0), 0);
    EXPECT_EQ(sim::hour_index(3599.9), 0);
    EXPECT_EQ(sim::hour_index(3600.0), 1);
    EXPECT_EQ(sim::day_index(sim::kDay - 1.0), 0);
    EXPECT_EQ(sim::day_index(sim::kDay), 1);
    EXPECT_NEAR(sim::hour_of_day(sim::kDay + 2.5 * sim::kHour), 2.5, 1e-9);
}

TEST(SimTime, FormatTime) {
    EXPECT_EQ(sim::format_time(0.0), "0d00:00:00");
    EXPECT_EQ(sim::format_time(93784.0), "1d02:03:04");
    EXPECT_EQ(sim::format_time(sim::kWeek), "7d00:00:00");
}

}  // namespace
