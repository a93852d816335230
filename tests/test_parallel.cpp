// The deterministic parallel execution layer: whatever the pool size and
// however the OS schedules the workers, results come back in input order and
// errors surface identically. Everything downstream (CBG, the report, the
// study assembly) leans on these guarantees for bit-identical output.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace util = ytcdn::util;

namespace {

/// Scoped YTCDN_THREADS override (default_thread_count re-reads the env on
/// every call, so no caching gets in the way).
class ThreadsEnv {
public:
    explicit ThreadsEnv(const char* value) {
        const char* old = std::getenv("YTCDN_THREADS");
        had_old_ = old != nullptr;
        if (had_old_) old_ = old;
        ::setenv("YTCDN_THREADS", value, 1);
    }
    ~ThreadsEnv() {
        if (had_old_) {
            ::setenv("YTCDN_THREADS", old_.c_str(), 1);
        } else {
            ::unsetenv("YTCDN_THREADS");
        }
    }

private:
    bool had_old_ = false;
    std::string old_;
};

TEST(Parallel, MapPreservesInputOrder) {
    util::ThreadPool pool(8);
    std::vector<int> items(500);
    std::iota(items.begin(), items.end(), 0);

    const auto out = util::parallel_map(pool, items, [](int v) { return v * v; });

    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i * i)) << i;
    }
}

TEST(Parallel, MapIndexedCoversEveryIndexExactlyOnce) {
    util::ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(200);
    const auto out = util::parallel_map_indexed(pool, hits.size(), [&](std::size_t i) {
        hits[i].fetch_add(1);
        return i;
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].load(), 1) << i;
        EXPECT_EQ(out[i], i);
    }
}

TEST(Parallel, SerialPoolMatchesParallelPool) {
    // The pool is an execution detail: size 1 (exact serial) and size 8 must
    // produce identical results for a pure map.
    util::ThreadPool serial(1);
    util::ThreadPool wide(8);
    std::vector<int> items(300);
    std::iota(items.begin(), items.end(), -150);

    const auto f = [](int v) { return v * 31 + 7; };
    EXPECT_EQ(util::parallel_map(serial, items, f), util::parallel_map(wide, items, f));
}

TEST(Parallel, ResultTypeNeedNotBeDefaultConstructible) {
    struct NoDefault {
        explicit NoDefault(int v) : value(v) {}
        int value;
    };
    util::ThreadPool pool(3);
    const auto out = util::parallel_map_indexed(
        pool, 50, [](std::size_t i) { return NoDefault(static_cast<int>(i)); });
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].value, static_cast<int>(i));
    }
}

TEST(Parallel, ForEachRunsEveryItem) {
    util::ThreadPool pool(4);
    std::vector<int> items(100, 1);
    std::atomic<int> sum{0};
    util::parallel_for_each(pool, items, [&](int v) { sum.fetch_add(v); });
    EXPECT_EQ(sum.load(), 100);
}

TEST(Parallel, LowestIndexExceptionWins) {
    // Several tasks throw; the caller must deterministically see the one
    // from the lowest index, independent of which worker hit its error
    // first.
    util::ThreadPool pool(8);
    for (int round = 0; round < 10; ++round) {
        try {
            (void)util::parallel_map_indexed(pool, 64, [](std::size_t i) -> int {
                if (i % 2 == 1) {
                    throw std::runtime_error("task " + std::to_string(i));
                }
                return 0;
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "task 1");
        }
    }
}

TEST(Parallel, ExceptionOnSerialPoolPropagates) {
    util::ThreadPool pool(1);
    EXPECT_THROW(util::parallel_map_indexed(
                     pool, 4,
                     [](std::size_t i) -> int {
                         if (i == 2) throw std::invalid_argument("boom");
                         return 0;
                     }),
                 std::invalid_argument);
}

TEST(Parallel, PoolIsReusableAfterAnException) {
    util::ThreadPool pool(4);
    EXPECT_THROW(util::parallel_map_indexed(pool, 8,
                                            [](std::size_t) -> int {
                                                throw std::runtime_error("x");
                                            }),
                 std::runtime_error);
    // The failed batch is fully drained; the next one runs clean.
    const auto out =
        util::parallel_map_indexed(pool, 8, [](std::size_t i) { return i + 1; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i + 1);
}

TEST(Parallel, ManyBatchesOnOnePool) {
    util::ThreadPool pool(4);
    for (std::size_t round = 0; round < 50; ++round) {
        const auto out = util::parallel_map_indexed(
            pool, 20, [round](std::size_t i) { return round * 100 + i; });
        for (std::size_t i = 0; i < out.size(); ++i) {
            ASSERT_EQ(out[i], round * 100 + i);
        }
    }
}

TEST(Parallel, NestedCallsDegradeToSerialInsteadOfDeadlocking) {
    util::ThreadPool pool(2);
    const auto out = util::parallel_map_indexed(pool, 8, [&](std::size_t i) {
        // A pool task that fans out on its own pool must not wait for
        // workers that are busy running it — the nested call inlines.
        const auto inner =
            util::parallel_map_indexed(pool, 4, [i](std::size_t j) { return i * 10 + j; });
        std::size_t sum = 0;
        for (const auto v : inner) sum += v;
        return sum;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], i * 40 + 6);
    }
}

TEST(Parallel, EmptyInputYieldsEmptyOutput) {
    util::ThreadPool pool(4);
    const std::vector<int> none;
    EXPECT_TRUE(util::parallel_map(pool, none, [](int v) { return v; }).empty());
}

TEST(Parallel, DefaultThreadCountHonoursEnv) {
    {
        ThreadsEnv env("1");
        EXPECT_EQ(util::default_thread_count(), 1u);
    }
    {
        ThreadsEnv env("6");
        EXPECT_EQ(util::default_thread_count(), 6u);
    }
    {
        // Garbage and out-of-range values fall back to the hardware floor.
        ThreadsEnv env("not-a-number");
        EXPECT_GE(util::default_thread_count(), 1u);
    }
    {
        ThreadsEnv env("0");
        EXPECT_GE(util::default_thread_count(), 1u);
    }
}

TEST(Parallel, EnvSerialPoolStillProducesIdenticalResults) {
    // YTCDN_THREADS=1 is the support contract's escape hatch: everything
    // must behave exactly as the multi-threaded default.
    std::vector<int> items(128);
    std::iota(items.begin(), items.end(), 0);
    const auto f = [](int v) { return (v * 2654435761u) % 1000; };

    std::vector<unsigned> serial_out;
    {
        ThreadsEnv env("1");
        util::ThreadPool pool(util::default_thread_count());
        EXPECT_EQ(pool.size(), 1u);
        serial_out = util::parallel_map(pool, items, f);
    }
    util::ThreadPool wide(8);
    EXPECT_EQ(serial_out, util::parallel_map(wide, items, f));
}

// --- run_pipelined: the ordered, bounded decode-ahead pipeline ------------

/// Keeps spin()'s work observable, so the optimizer cannot drop it.
std::atomic<std::uint64_t> g_spin_sink{0};

/// Busy work of a few microseconds (times `scale`) that varies by index,
/// so lanes finish out of order.
std::uint64_t spin(std::size_t i, std::size_t scale = 1) {
    std::uint64_t h = i + 1;
    for (std::size_t k = 0; k < scale * (200 + (i * 7919) % 1500); ++k) {
        h = h * 6364136223846793005ull + 1442695040888963407ull;
    }
    g_spin_sink.fetch_xor(h, std::memory_order_relaxed);
    return h;
}

TEST(Pipeline, ConsumesEveryIndexInOrderAtEveryPoolSize) {
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(lanes);
        constexpr std::size_t kItems = 300;
        std::vector<std::uint64_t> slots(kItems, 0);
        std::vector<std::size_t> order;
        pool.run_pipelined(
            kItems, [&](std::size_t i) { slots[i] = spin(i); },
            [&](std::size_t i) {
                EXPECT_EQ(slots[i], spin(i)) << "consume saw an unfinished produce";
                order.push_back(i);
                return true;
            });
        ASSERT_EQ(order.size(), kItems) << "lanes=" << lanes;
        for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(order[i], i);
    }
}

TEST(Pipeline, ProducesAtMostAWindowAheadOfConsumption) {
    for (const std::size_t lanes : {2u, 4u, 8u}) {
        util::ThreadPool pool(lanes);
        const std::size_t window = pool.pipeline_window();
        EXPECT_EQ(window, 2 * lanes);
        constexpr std::size_t kItems = 200;
        std::atomic<std::size_t> consumed{0};
        std::vector<std::size_t> consumed_at_start(kItems, 0);
        pool.run_pipelined(
            kItems,
            [&](std::size_t i) { consumed_at_start[i] = consumed.load(); },
            [&](std::size_t i) {
                // A consumer far slower than the lanes: they run ahead until
                // the window stops them.
                (void)spin(i, 40);
                consumed.fetch_add(1);
                return true;
            });
        for (std::size_t i = window; i < kItems; ++i) {
            // consume(i - W) returned before produce(i) started.
            EXPECT_GT(consumed_at_start[i], i - window)
                << "lanes=" << lanes << " i=" << i;
        }
    }
}

TEST(Pipeline, LowestFailingIndexWinsAfterEveryStartedProduceEnds) {
    util::ThreadPool pool(8);
    for (int round = 0; round < 10; ++round) {
        std::atomic<int> running{0};
        std::atomic<std::size_t> highest_consumed{0};
        try {
            pool.run_pipelined(
                64,
                [&](std::size_t i) {
                    running.fetch_add(1);
                    (void)spin(64 - i);
                    running.fetch_sub(1);
                    if (i == 9 || i == 13) {
                        throw std::runtime_error("produce " + std::to_string(i));
                    }
                },
                [&](std::size_t i) {
                    highest_consumed.store(i);
                    return true;
                });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "produce 9");
        }
        EXPECT_EQ(running.load(), 0) << "a produce outlived the pipeline";
        EXPECT_EQ(highest_consumed.load(), 8u);
    }
    // A throwing consume is the lowest failure when it comes first.
    EXPECT_THROW(pool.run_pipelined(
                     64,
                     [](std::size_t i) {
                         if (i == 20) throw std::invalid_argument("produce 20");
                     },
                     [](std::size_t i) {
                         if (i == 5) throw std::runtime_error("consume 5");
                         return true;
                     }),
                 std::runtime_error);
    // The pool runs clean afterwards.
    std::size_t sum = 0;
    pool.run_pipelined(
        10, [](std::size_t) {},
        [&](std::size_t i) {
            sum += i;
            return true;
        });
    EXPECT_EQ(sum, 45u);
}

TEST(Pipeline, EarlyStopFromConsumeStopsProduction) {
    for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(lanes);
        constexpr std::size_t kItems = 200;
        constexpr std::size_t kStopAt = 10;
        std::vector<std::atomic<int>> produced(kItems);
        std::size_t consumes = 0;
        pool.run_pipelined(
            kItems, [&](std::size_t i) { produced[i].fetch_add(1); },
            [&](std::size_t i) {
                ++consumes;
                return i != kStopAt;
            });
        EXPECT_EQ(consumes, kStopAt + 1) << "lanes=" << lanes;
        // consume(kStopAt - 1) is the last one that returned true, so no
        // index at or past kStopAt + W may have been produced.
        const std::size_t limit =
            lanes == 1 ? kStopAt + 1 : kStopAt + pool.pipeline_window();
        for (std::size_t i = 0; i < kItems; ++i) {
            const int expected_max = i < limit ? 1 : 0;
            if (i <= kStopAt) {
                EXPECT_EQ(produced[i].load(), 1) << "lanes=" << lanes << " i=" << i;
            } else {
                EXPECT_LE(produced[i].load(), expected_max)
                    << "lanes=" << lanes << " i=" << i;
            }
        }
    }
}

TEST(Pipeline, SerialPoolIsTheExactInterleave) {
    util::ThreadPool pool(1);
    std::vector<std::string> log;
    pool.run_pipelined(
        4, [&](std::size_t i) { log.push_back("p" + std::to_string(i)); },
        [&](std::size_t i) {
            log.push_back("c" + std::to_string(i));
            return i != 2;
        });
    EXPECT_EQ(log, (std::vector<std::string>{"p0", "c0", "p1", "c1", "p2", "c2"}));

    // A pipeline started from inside one of the pool's own tasks is serial
    // too, whatever the pool size.
    util::ThreadPool wide(4);
    std::vector<std::vector<std::string>> nested(3);
    wide.run_indexed(nested.size(), [&](std::size_t t) {
        wide.run_pipelined(
            3, [&](std::size_t i) { nested[t].push_back("p" + std::to_string(i)); },
            [&](std::size_t i) {
                nested[t].push_back("c" + std::to_string(i));
                return true;
            });
    });
    for (const auto& events : nested) {
        EXPECT_EQ(events,
                  (std::vector<std::string>{"p0", "c0", "p1", "c1", "p2", "c2"}));
    }
}

TEST(BlockChannel, EveryQueueKeepsItsOrderAcrossThreads) {
    // One producer fills four queues of two slots each, always the emptiest
    // one; the consumer reads them round-robin on another lane. Every
    // queue must arrive complete and in order, with at most two blocks
    // of it alive at once.
    constexpr std::size_t kQueues = 4;
    constexpr std::size_t kBlocks = 200;
    util::ThreadPool pool(2);
    util::BlockChannel<std::vector<std::size_t>> channel(kQueues, 2);
    std::vector<std::size_t> made(kQueues, 0);
    std::vector<std::vector<std::size_t>> got(kQueues);
    pool.run_lanes(
        1,
        [&](std::size_t, std::size_t) {
            for (;;) {
                const std::size_t q = channel.claim_any();
                if (q == util::RingGate::kNone) return;
                auto& block = channel.claim(q);
                block.assign(3, made[q]++);
                channel.publish(q);
                if (made[q] == kBlocks) channel.close(q);
            }
        },
        [&](std::size_t granted) {
            ASSERT_EQ(granted, 1u);
            std::size_t open = kQueues;
            std::vector<bool> done(kQueues, false);
            while (open > 0) {
                for (std::size_t q = 0; q < kQueues; ++q) {
                    if (done[q]) continue;
                    const auto* block = channel.next(q);
                    if (block == nullptr) {
                        done[q] = true;
                        --open;
                        continue;
                    }
                    got[q].push_back(block->front());
                    channel.release(q);
                }
            }
        },
        [&] { channel.abort(); });
    for (std::size_t q = 0; q < kQueues; ++q) {
        ASSERT_EQ(got[q].size(), kBlocks) << q;
        for (std::size_t i = 0; i < kBlocks; ++i) EXPECT_EQ(got[q][i], i) << q;
    }
}

TEST(BlockChannel, ClaimAnyPicksTheEmptiestOpenQueue) {
    util::BlockChannel<int> channel(3, 2);
    EXPECT_EQ(channel.claim_any(), 0u);
    channel.claim(0) = 1;
    channel.publish(0);
    EXPECT_EQ(channel.claim_any(), 1u);  // 0 holds one block, 1 and 2 none
    channel.close(1);
    EXPECT_EQ(channel.claim_any(), 2u);
    channel.claim(2) = 2;
    channel.publish(2);
    channel.claim(2) = 3;
    channel.publish(2);
    EXPECT_EQ(channel.claim_any(), 0u);  // 2 is full
    channel.close(0);
    channel.close(2);
    EXPECT_EQ(channel.claim_any(), util::RingGate::kNone);
    // Closed queues still hand out what they hold, then end.
    ASSERT_NE(channel.next(2), nullptr);
    EXPECT_EQ(*channel.next(2), 2);
    channel.release(2);
    EXPECT_EQ(*channel.next(2), 3);
    channel.release(2);
    EXPECT_EQ(channel.next(2), nullptr);
    EXPECT_EQ(channel.next(1), nullptr);
}

TEST(BlockChannel, AbortWakesBothSides) {
    util::ThreadPool pool(3);
    util::BlockChannel<int> full(1, 1);
    util::BlockChannel<int> empty(1, 1);
    full.claim(0) = 7;
    full.publish(0);
    std::atomic<int> woke{0};
    pool.run_lanes(
        2,
        [&](std::size_t lane, std::size_t) {
            try {
                if (lane == 0) {
                    (void)full.claim(0);  // no room until the consumer releases
                } else {
                    (void)empty.next(0);  // nothing published
                }
            } catch (const util::PipelineAborted&) {
                ++woke;
            }
        },
        [&](std::size_t granted) {
            ASSERT_EQ(granted, 2u);
            full.abort();
            empty.abort();
        },
        [] {});
    EXPECT_EQ(woke.load(), 2);
    EXPECT_THROW((void)full.next(0), util::PipelineAborted);
    EXPECT_THROW(util::RingGate(0, 1), std::invalid_argument);
}

TEST(Lanes, GrantsFreeWorkersInLaneOrder) {
    for (const std::size_t size : {1u, 2u, 3u, 4u, 8u}) {
        util::ThreadPool pool(size);
        std::mutex mutex;
        std::vector<std::size_t> ran;
        std::size_t seen = 99;
        pool.run_lanes(
            3,
            [&](std::size_t lane, std::size_t granted) {
                const std::lock_guard<std::mutex> lock(mutex);
                ran.push_back(lane);
                EXPECT_LT(lane, granted);
            },
            [&](std::size_t granted) { seen = granted; }, [] {});
        EXPECT_EQ(seen, std::min<std::size_t>(3, size - 1)) << size;
        std::sort(ran.begin(), ran.end());
        std::vector<std::size_t> expected(seen);
        std::iota(expected.begin(), expected.end(), std::size_t{0});
        EXPECT_EQ(ran, expected) << size;
    }
}

TEST(Lanes, InsideAPoolTaskNothingIsGranted) {
    util::ThreadPool pool(4);
    const auto granted = util::parallel_map_indexed(pool, 4, [&pool](std::size_t) {
        std::size_t seen = 99;
        pool.run_lanes(
            2, [](std::size_t, std::size_t) { ADD_FAILURE() << "lane ran"; },
            [&](std::size_t g) { seen = g; }, [] {});
        return seen;
    });
    for (const auto g : granted) EXPECT_EQ(g, 0u);
}

TEST(Lanes, FirstFailureIsRethrownAndItsEchoesAreDropped) {
    for (const std::size_t size : {1u, 4u}) {
        util::ThreadPool pool(size);
        // A lane fails; the consumer, blocked on the lane's channel, wakes
        // with PipelineAborted, and the lane's error is what the caller sees.
        util::BlockChannel<int> channel(1, 2);
        const auto run = [&] {
            pool.run_lanes(
                1,
                [&](std::size_t, std::size_t) {
                    channel.claim(0) = 1;
                    channel.publish(0);
                    throw std::runtime_error("lane failed");
                },
                [&](std::size_t granted) {
                    if (granted == 0) throw std::runtime_error("consumer failed");
                    while (channel.next(0) != nullptr) channel.release(0);
                },
                [&] { channel.abort(); });
        };
        try {
            run();
            ADD_FAILURE() << "no exception at size " << size;
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), size == 1 ? "consumer failed" : "lane failed");
        }
        // The pool is whole afterwards.
        const auto out =
            util::parallel_map_indexed(pool, 16, [](std::size_t i) { return i * 2; });
        for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 2);
    }
}

TEST(Lanes, PoolMetricsCountTheSameWorkAtEverySize) {
    auto& registry = ytcdn::util::metrics::Registry::global();
    std::string first;
    for (const std::size_t size : {1u, 2u, 4u, 8u}) {
        util::ThreadPool pool(size);
        registry.reset();
        pool.run_lanes(
            2, [](std::size_t, std::size_t) {}, [](std::size_t) {}, [] {});
        std::string pool_lines;
        for (const auto& e : registry.snapshot().entries) {
            if (e.name.rfind("util.pool.", 0) == 0) {
                pool_lines += e.name + "=" + std::to_string(e.value) + "\n";
            }
        }
        if (first.empty()) first = pool_lines;
        EXPECT_EQ(pool_lines, first) << size;
    }
    EXPECT_NE(first.find("util.pool.tasks=2"), std::string::npos) << first;
}

TEST(Parallel, SharedPoolIsUsable) {
    auto& pool = util::shared_pool();
    EXPECT_GE(pool.size(), 1u);
    const auto out =
        util::parallel_map_indexed(pool, 10, [](std::size_t i) { return i; });
    EXPECT_EQ(out.size(), 10u);
}

}  // namespace
