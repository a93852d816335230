#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ytcdn::util {

/// Threads to use when nothing is configured: the YTCDN_THREADS environment
/// variable if set (clamped to [1, 512]), else hardware_concurrency, floor 1.
/// Re-read on every call so tests can vary the environment.
[[nodiscard]] std::size_t default_thread_count();

/// A fixed-size worker pool for deterministic fan-out.
///
/// run_indexed(n, task) runs task(0..n-1) across the workers *and* the
/// calling thread, blocking until every index has finished (run_pipelined,
/// below, is its ordered, bounded sibling). Guarantees, regardless of pool
/// size or scheduling:
///
///  * results keyed by index (see parallel_map) come back in input order;
///  * a pool of size 1 runs every index on the calling thread, in order —
///    an exact serial fallback with zero worker involvement;
///  * run_indexed called from inside one of this pool's own tasks degrades
///    to the same serial loop (no deadlock, same output) — so a task whose
///    own work fans out gets one lane only; run such work at top level,
///    before the fan-out it would otherwise sit in (as make_full_report
///    does for Table III's CBG phase);
///  * if tasks throw, every index still runs, and the exception from the
///    *lowest* throwing index is rethrown — deterministic across schedules.
///
/// Tasks must not share mutable state; determinism of the overall program
/// additionally requires each task to derive any randomness from a key that
/// identifies the task (sim::Rng::fork by stable id), never from a stream
/// shared across tasks.
class ThreadPool {
public:
    /// threads = 0 picks default_thread_count(). A pool of size n uses
    /// n - 1 workers: the caller of run_indexed is the n-th lane.
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    /// Runs task(i) for every i in [0, n), blocking until all complete.
    void run_indexed(std::size_t n, const std::function<void(std::size_t)>& task);

    /// An ordered, bounded decode-ahead pipeline over [0, n), blocking until
    /// it ends:
    ///
    ///  * produce(i) runs once on any lane, never before consume(i - W)
    ///    returned, where W = pipeline_window(): at most W items are
    ///    produced ahead of consumption, so memory is O(W x item);
    ///  * consume(i) runs on the calling thread, strictly in index order,
    ///    one at a time, after produce(i) ended; each consume happens
    ///    before the next;
    ///  * consume returning false stops the pipeline: no produce starts
    ///    after that, and items produced ahead are never consumed;
    ///  * a pool of size 1 (or a call from inside one of this pool's tasks)
    ///    is the exact serial interleave produce(0), consume(0),
    ///    produce(1), ...;
    ///  * a throwing produce(i) or consume(i) stops the pipeline at i; once
    ///    every started produce has ended, the exception from the lowest
    ///    failing index is rethrown. Consumption is in order, so that is
    ///    the first failure the consumer meets.
    ///
    /// produce(i) and produce(j) must not share mutable state; produce(i)
    /// hands its result to consume(i) through slot i of caller-owned
    /// storage. The waits live here, not in the consumer, so a caller
    /// whose own loop must never block on a condition variable (ytcdnd)
    /// can still overlap decoding with folding.
    void run_pipelined(std::size_t n,
                       const std::function<void(std::size_t)>& produce,
                       const std::function<bool(std::size_t)>& consume);

    /// W for run_pipelined: two items in flight per lane.
    [[nodiscard]] std::size_t pipeline_window() const noexcept {
        return 2 * size_;
    }

    /// Up to k long-lived lanes beside a consumer loop on the calling
    /// thread, blocking until all of them end:
    ///
    ///  * lanes go only to workers that are free at the call, and are
    ///    handed to them at once: `granted` (<= k) of them get one, lanes
    ///    0..granted-1 in index order, and lane(j, granted) runs on its
    ///    worker. The other lanes never run as lanes: the stage code runs
    ///    their work inline, so nothing ever waits on a lane no worker has
    ///    picked up;
    ///  * consume(granted) runs on the calling thread meanwhile;
    ///  * a pool of size 1, or a call from inside one of this pool's tasks,
    ///    grants 0: consume(0) is then the whole serial run;
    ///  * whenever a lane or the consumer throws, abort() runs (it must not
    ///    throw), so that stages blocked on each other's BlockChannel wake
    ///    with PipelineAborted; once every granted lane has ended, the
    ///    first failure is rethrown, not those echoes;
    ///  * util.pool.* counts one batch of k tasks, whatever `granted` is.
    ///
    /// Which lanes got workers decides only where work runs, so a stage
    /// layout that gives the same output at every `granted` is
    /// deterministic at every pool size.
    void run_lanes(std::size_t k,
                   const std::function<void(std::size_t lane, std::size_t granted)>& lane,
                   const std::function<void(std::size_t granted)>& consume,
                   const std::function<void()>& abort);

private:
    struct Batch;
    struct Pipeline;
    /// One granted lane of a run_lanes call, waiting for a free worker.
    struct LaneItem {
        std::shared_ptr<Batch> batch;
        std::size_t index = 0;
    };

    /// Queues task(0..n-1) for the workers.
    std::shared_ptr<Batch> submit(std::size_t n,
                                  const std::function<void(std::size_t)>& task);
    /// Runs unclaimed indices of `batch` here, waits for the rest, dequeues it.
    void finish(Batch& batch);
    void worker_main();
    void work_on(Batch& batch);
    [[nodiscard]] std::shared_ptr<Batch> open_batch() const;
    [[nodiscard]] bool serial_here() const noexcept;

    std::size_t size_;
    std::vector<std::thread> workers_;  // ytcdn-lint: allow(raw-thread)
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::shared_ptr<Batch>> batches_;
    std::deque<LaneItem> lanes_;  // taken before any batch
    std::size_t busy_ = 0;        // workers running a task or a lane
    bool stop_ = false;
};

/// Thrown by a BlockChannel wait once the channel is aborted: a stage on
/// the other side failed, and run_lanes rethrows that failure instead.
class PipelineAborted : public std::runtime_error {
public:
    PipelineAborted() : std::runtime_error("pipeline aborted") {}
};

/// The waits of a BlockChannel, for any block type: `queues` rings of
/// `slots` slots each, all under one lock, with one producer and one
/// consumer. Slots are filled and read in place, so a ring's blocks are
/// reused and a queue never holds more than `slots` of them.
class RingGate {
public:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    RingGate(std::size_t queues, std::size_t slots);

    /// Producer: the slot of queue q to fill next, waiting while all of
    /// q's slots hold blocks the consumer has not released.
    [[nodiscard]] std::size_t claim(std::size_t q);
    /// Producer: the open queue with room that holds the fewest blocks
    /// (lowest index on ties), waiting while every open queue is full;
    /// kNone once every queue is closed.
    [[nodiscard]] std::size_t claim_any();
    /// Producer: hands q's claimed slot to the consumer.
    void publish(std::size_t q);
    /// Producer: q gets no more blocks.
    void close(std::size_t q);

    /// Consumer: q's oldest published slot, waiting while there is none;
    /// kNone once q is closed and every block was read.
    [[nodiscard]] std::size_t next(std::size_t q);
    /// Consumer: gives back the slot next() returned last.
    void release(std::size_t q);

    /// Every wait, now or later, throws PipelineAborted.
    void abort() noexcept;

private:
    struct Ring {
        std::size_t published = 0;  // blocks handed to the consumer, ever
        std::size_t released = 0;   // blocks the consumer gave back, ever
        bool closed = false;
    };
    void wait(std::condition_variable& cv, bool& waiting,
              std::unique_lock<std::mutex>& lock);

    const std::size_t slots_;
    std::vector<Ring> rings_;
    std::mutex mutex_;
    std::condition_variable producer_cv_;
    std::condition_variable consumer_cv_;
    bool producer_waiting_ = false;
    bool consumer_waiting_ = false;
    bool aborted_ = false;
};

/// A bounded, order-preserving hand-off of blocks between two pipeline
/// stages: `queues` single-producer/single-consumer queues of `slots`
/// blocks each. The producer fills claim(q) in place and publishes it; the
/// consumer reads next(q) in place and releases it. Blocks are reused, so
/// a producer clears a claimed block before filling it. close() ends a
/// queue; abort() wakes both sides with PipelineAborted, so a failure on
/// either side unblocks the other.
template <typename Block>
class BlockChannel {
public:
    BlockChannel(std::size_t queues, std::size_t slots)
        : gate_(queues, slots), slots_(slots), blocks_(queues * slots) {}

    [[nodiscard]] Block& claim(std::size_t q) {
        return blocks_[q * slots_ + gate_.claim(q)];
    }
    [[nodiscard]] std::size_t claim_any() { return gate_.claim_any(); }
    void publish(std::size_t q) { gate_.publish(q); }
    void close(std::size_t q) { gate_.close(q); }

    /// Null once q is closed and drained; valid until release(q).
    [[nodiscard]] const Block* next(std::size_t q) {
        const std::size_t slot = gate_.next(q);
        return slot == RingGate::kNone ? nullptr : &blocks_[q * slots_ + slot];
    }
    void release(std::size_t q) { gate_.release(q); }
    void abort() noexcept { gate_.abort(); }

private:
    RingGate gate_;
    std::size_t slots_;
    std::vector<Block> blocks_;
};

/// The process-wide pool, sized by default_thread_count() at first use.
/// Everything that is not handed an explicit pool shares this one.
[[nodiscard]] ThreadPool& shared_pool();

/// Applies f to every element of items on the pool and returns the results
/// **in input order** — bit-identical output across any thread count.
template <typename T, typename F>
[[nodiscard]] auto parallel_map(ThreadPool& pool, const std::vector<T>& items, F&& f)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, const T&>>> {
    using R = std::decay_t<std::invoke_result_t<F&, const T&>>;
    std::vector<std::optional<R>> slots(items.size());
    pool.run_indexed(items.size(),
                     [&](std::size_t i) { slots[i].emplace(f(items[i])); });
    std::vector<R> out;
    out.reserve(items.size());
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
}

/// Index-keyed variant for producers that need the position, not a value.
template <typename F>
[[nodiscard]] auto parallel_map_indexed(ThreadPool& pool, std::size_t n, F&& f)
    -> std::vector<std::decay_t<std::invoke_result_t<F&, std::size_t>>> {
    using R = std::decay_t<std::invoke_result_t<F&, std::size_t>>;
    std::vector<std::optional<R>> slots(n);
    pool.run_indexed(n, [&](std::size_t i) { slots[i].emplace(f(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
}

/// Side-effect-only fan-out; each task may touch only its own element.
template <typename T, typename F>
void parallel_for_each(ThreadPool& pool, std::vector<T>& items, F&& f) {
    pool.run_indexed(items.size(), [&](std::size_t i) { f(items[i]); });
}

}  // namespace ytcdn::util
