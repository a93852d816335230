// util::metrics property tests: the registry's merge must be a
// permutation-invariant fold (counters sum, gauges max, histograms sum per
// bucket) so a snapshot taken after a ThreadPool join renders byte-identically
// at any YTCDN_THREADS. These tests drive fresh local registries — the
// process-global one stays untouched so other suites see their own counts.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace metrics = ytcdn::util::metrics;

namespace {

TEST(Metrics, CounterSumsAcrossThreadsMatchesSerialTotal) {
    const std::vector<int> thread_counts = {1, 2, 4, 8};
    constexpr std::uint64_t kPerThread = 10000;

    std::string baseline;
    for (const int threads : thread_counts) {
        metrics::Registry registry;
        const auto counter = registry.counter("test.ops");
        // Raw threads on purpose: the merge must hold under real,
        // uncoordinated interleavings, not just the ordered pool.
        std::vector<std::thread> workers;  // ytcdn-lint: allow(raw-thread)
        workers.reserve(threads);
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&counter, threads] {
                for (std::uint64_t i = 0; i < kPerThread * 8 / threads; ++i) {
                    counter.inc();
                }
            });
        }
        for (auto& w : workers) w.join();

        const auto snapshot = registry.snapshot();
        ASSERT_EQ(snapshot.entries.size(), 1u);
        EXPECT_EQ(snapshot.entries[0].value, kPerThread * 8);
        if (baseline.empty()) {
            baseline = snapshot.render();
        } else {
            EXPECT_EQ(snapshot.render(), baseline)
                << "render differs at " << threads << " threads";
        }
    }
}

TEST(Metrics, ShardMergeIsPermutationInvariant) {
    // Two registries fed the same multiset of updates from different thread
    // interleavings must snapshot identically.
    const auto run = [](int threads) {
        metrics::Registry registry;
        const auto counter = registry.counter("perm.count");
        const auto gauge = registry.gauge("perm.peak");
        const auto hist = registry.histogram("perm.sizes", {1.0, 10.0, 100.0});
        std::vector<std::thread> workers;  // ytcdn-lint: allow(raw-thread)
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                for (int i = t; i < 1000; i += threads) {
                    counter.inc(static_cast<std::uint64_t>(i % 7));
                    gauge.update_max(static_cast<std::uint64_t>(i));
                    hist.observe(static_cast<double>(i % 150));
                }
            });
        }
        for (auto& w : workers) w.join();
        return registry.snapshot();
    };

    const auto one = run(1);
    const auto three = run(3);
    const auto eight = run(8);
    EXPECT_EQ(one.entries, three.entries);
    EXPECT_EQ(one.entries, eight.entries);
    EXPECT_EQ(one.render(), eight.render());
    EXPECT_EQ(one.to_json(), eight.to_json());
}

TEST(Metrics, EmptyRegistrySnapshotIsHeaderOnly) {
    metrics::Registry registry;
    const auto snapshot = registry.snapshot();
    EXPECT_TRUE(snapshot.entries.empty());
    EXPECT_EQ(snapshot.render(), "# ytcdn metrics v1\n");
    EXPECT_EQ(snapshot.to_json(), "{}");
}

TEST(Metrics, SnapshotRendersInSortedNameOrder) {
    metrics::Registry registry;
    // Registered out of order on purpose.
    registry.counter("zeta.last").inc();
    registry.counter("alpha.first").inc(2);
    registry.gauge("mid.gauge").update_max(7);
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 3u);
    EXPECT_EQ(snapshot.entries[0].name, "alpha.first");
    EXPECT_EQ(snapshot.entries[1].name, "mid.gauge");
    EXPECT_EQ(snapshot.entries[2].name, "zeta.last");
    EXPECT_EQ(snapshot.render(),
              "# ytcdn metrics v1\n"
              "counter alpha.first 2\n"
              "gauge mid.gauge 7\n"
              "counter zeta.last 1\n");
}

TEST(Metrics, GaugeKeepsTheMaximumNotTheLastWrite) {
    metrics::Registry registry;
    const auto gauge = registry.gauge("test.peak");
    gauge.update_max(5);
    gauge.update_max(100);
    gauge.update_max(3);  // lower than the peak: must not win
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 1u);
    EXPECT_EQ(snapshot.entries[0].value, 100u);
}

TEST(Metrics, HistogramBucketsByUpperBoundWithInfOverflow) {
    metrics::Registry registry;
    const auto hist = registry.histogram("test.h", {1.0, 2.0, 4.0});
    hist.observe(0.0);   // le_1
    hist.observe(1.0);   // le_1 (bounds are inclusive)
    hist.observe(1.5);   // le_2
    hist.observe(4.0);   // le_4
    hist.observe(99.0);  // inf
    hist.observe(std::numeric_limits<double>::quiet_NaN());  // inf, not a crash
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 1u);
    const auto& e = snapshot.entries[0];
    EXPECT_EQ(e.kind, metrics::SnapshotEntry::Kind::Histogram);
    ASSERT_EQ(e.buckets.size(), 4u);
    EXPECT_EQ(e.buckets[0], 2u);
    EXPECT_EQ(e.buckets[1], 1u);
    EXPECT_EQ(e.buckets[2], 1u);
    EXPECT_EQ(e.buckets[3], 2u);
    EXPECT_EQ(e.count, 6u);
    EXPECT_EQ(snapshot.render(),
              "# ytcdn metrics v1\n"
              "histogram test.h count=6 le_1=2 le_2=1 le_4=1 inf=2\n");
}

TEST(Metrics, CreateOrGetReturnsTheSameSlot) {
    metrics::Registry registry;
    const auto a = registry.counter("same.name");
    const auto b = registry.counter("same.name");
    a.inc();
    b.inc();
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 1u);
    EXPECT_EQ(snapshot.entries[0].value, 2u);
    EXPECT_EQ(registry.num_metrics(), 1u);
}

TEST(Metrics, KindConflictThrows) {
    metrics::Registry registry;
    (void)registry.counter("conflicted");
    EXPECT_THROW((void)registry.gauge("conflicted"), std::logic_error);
    EXPECT_THROW((void)registry.histogram("conflicted", {1.0}), std::logic_error);
    (void)registry.histogram("histo", {1.0, 2.0});
    // Same kind, different bounds: also one-name-one-meaning.
    EXPECT_THROW((void)registry.histogram("histo", {3.0}), std::logic_error);
}

TEST(Metrics, ResetZeroesValuesButKeepsRegistrations) {
    metrics::Registry registry;
    const auto counter = registry.counter("r.count");
    const auto hist = registry.histogram("r.h", {1.0});
    counter.inc(41);
    hist.observe(0.5);
    registry.reset();
    EXPECT_EQ(registry.num_metrics(), 2u);
    auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 2u);
    EXPECT_EQ(snapshot.entries[0].value, 0u);
    EXPECT_EQ(snapshot.entries[1].count, 0u);
    // Handles stay live after reset.
    counter.inc();
    snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.entries[0].value, 1u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoOps) {
    const metrics::Counter counter;
    const metrics::Gauge gauge;
    const metrics::Histogram hist;
    counter.inc();
    gauge.update_max(9);
    hist.observe(1.0);  // must not crash
}

TEST(Metrics, ShardsOfExitedThreadsAreRecycled) {
    // A fresh pool per round, as each `ytcdn serve` run builds one: the
    // workers' shards go back to the registry when they exit and the next
    // round's workers adopt them, so the shard count stays at the most
    // threads alive at once while every count survives the hand-over.
    metrics::Registry registry;
    const auto counter = registry.counter("recycle.count");
    const auto gauge = registry.gauge("recycle.max");
    constexpr std::size_t kRounds = 50;
    constexpr std::size_t kTasks = 64;
    for (std::size_t round = 0; round < kRounds; ++round) {
        ytcdn::util::ThreadPool pool(4);
        pool.run_indexed(kTasks, [&](std::size_t i) {
            counter.inc();
            gauge.update_max(round * kTasks + i);
        });
    }
    EXPECT_LE(registry.num_shards(), 5u);
    const auto snapshot = registry.snapshot();
    ASSERT_EQ(snapshot.entries.size(), 2u);
    EXPECT_EQ(snapshot.entries[0].value, kRounds * kTasks);      // recycle.count
    EXPECT_EQ(snapshot.entries[1].value, kRounds * kTasks - 1);  // recycle.max
    registry.reset();
    EXPECT_EQ(registry.snapshot().entries[0].value, 0u);
    EXPECT_EQ(registry.snapshot().entries[1].value, 0u);
}

TEST(Metrics, ThreadOutlivingItsRegistryExitsCleanly) {
    // The thread's exit hands its shard back by registry id, so a registry
    // destroyed first is never touched (ASan would flag the write).
    std::promise<void> registry_gone;
    std::thread worker;  // ytcdn-lint: allow(raw-thread)
    {
        metrics::Registry registry;
        const auto counter = registry.counter("outlived.count");
        std::promise<void> counted;
        worker = std::thread([counter, &counted,  // ytcdn-lint: allow(raw-thread)
                              gone = registry_gone.get_future()] {
            counter.inc();
            counted.set_value();
            gone.wait();
        });
        counted.get_future().wait();
        EXPECT_EQ(registry.snapshot().entries[0].value, 1u);
    }
    registry_gone.set_value();
    worker.join();
}

TEST(Metrics, GlobalRegistryIsASingleton) {
    auto& a = metrics::Registry::global();
    auto& b = metrics::Registry::global();
    EXPECT_EQ(&a, &b);
}

}  // namespace
