#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>

#include "util/metrics.hpp"

namespace ytcdn::util {

namespace {

/// Pool metrics count logical work units (batches submitted, tasks in them)
/// so the numbers are identical at every YTCDN_THREADS value; anything that
/// observes actual scheduling (queue occupancy, per-worker task counts)
/// would break the byte-determinism contract.
struct PoolMetrics {
    metrics::Counter batches = metrics::counter("util.pool.batches");
    metrics::Counter tasks = metrics::counter("util.pool.tasks");
    metrics::Gauge max_batch_tasks = metrics::gauge("util.pool.max_batch_tasks");
};

PoolMetrics& pool_metrics() {
    static PoolMetrics metrics;
    return metrics;
}

/// Set while a thread is executing batch work for a pool, so nested
/// run_indexed calls from inside a task fall back to the serial loop
/// instead of deadlocking on their own pool.
thread_local const ThreadPool* t_current_pool = nullptr;

struct PoolScope {
    explicit PoolScope(const ThreadPool* pool) : previous(t_current_pool) {
        t_current_pool = pool;
    }
    ~PoolScope() { t_current_pool = previous; }
    PoolScope(const PoolScope&) = delete;
    PoolScope& operator=(const PoolScope&) = delete;
    const ThreadPool* previous;
};

void count_batch(std::size_t n) {
    pool_metrics().batches.inc();
    pool_metrics().tasks.inc(n);
    pool_metrics().max_batch_tasks.update_max(n);
}

}  // namespace

std::size_t default_thread_count() {
    if (const char* env = std::getenv("YTCDN_THREADS")) {
        const long v = std::atol(env);
        if (v >= 1) return static_cast<std::size_t>(std::min(v, 512L));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool& shared_pool() {
    static ThreadPool pool(default_thread_count());
    return pool;
}

/// One run_indexed call in flight: workers and the caller race to claim the
/// next unclaimed index; `done` counts finished indices (throwing or not).
/// A throwing index stores its exception in its own slot of `errors`, so no
/// exception is ever replaced (and released) on a worker thread.
struct ThreadPool::Batch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* task = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::vector<std::exception_ptr> errors;
};

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? default_thread_count() : threads) {
    workers_.reserve(size_ - 1);
    for (std::size_t i = 0; i + 1 < size_; ++i) {
        workers_.emplace_back([this] { worker_main(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) worker.join();
}

bool ThreadPool::serial_here() const noexcept {
    return size_ <= 1 || t_current_pool == this;
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& task) {
    if (n == 0) return;
    count_batch(n);
    if (serial_here() || n == 1) {
        // Exact serial fallback: calling thread, input order, natural
        // exception propagation (which is also lowest-index-first).
        for (std::size_t i = 0; i < n; ++i) task(i);
        return;
    }

    const auto batch = submit(n, task);
    finish(*batch);  // the caller is a full participant
    // Every exception is released here, on the caller's thread: the lowest
    // index is rethrown (propagation does not depend on which worker lost
    // the race) and the rest die with `errors`.
    const std::vector<std::exception_ptr> errors = std::move(batch->errors);
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::submit(
    std::size_t n, const std::function<void(std::size_t)>& task) {
    auto batch = std::make_shared<Batch>();
    batch->n = n;
    batch->task = &task;
    batch->errors.resize(n);
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        batches_.push_back(batch);
    }
    cv_.notify_all();
    return batch;
}

void ThreadPool::finish(Batch& batch) {
    work_on(batch);
    {
        std::unique_lock<std::mutex> lock(batch.mutex);
        batch.finished.wait(lock, [&] { return batch.done.load() >= batch.n; });
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(batches_, [&](const auto& b) { return b.get() == &batch; });
}

/// One run_pipelined call in flight. Lanes claim indices in order (`next`)
/// while the window allows; `ready[i]` marks produce(i) ended, with its
/// exception, if any, in `errors[i]`. Every field is guarded by `mutex`
/// except `errors[i]`, which only the lane running produce(i) writes before
/// it sets `ready[i]`.
struct ThreadPool::Pipeline {
    Pipeline(std::size_t items, std::size_t ahead,
             const std::function<void(std::size_t)>& task)
        : n(items), window(ahead), produce(task), ready(items, 0), errors(items) {}

    /// Runs produce(i) for a claimed i and publishes that it ended.
    void run(std::size_t i) {
        try {
            produce(i);
        } catch (...) {  // ytcdn-lint: allow(catch-all) — rethrown on the caller
            errors[i] = std::current_exception();
        }
        const std::lock_guard<std::mutex> lock(mutex);
        ready[i] = 1;
        changed.notify_all();
    }

    /// A worker lane: produce whatever the window allows until the
    /// pipeline stops or every index is claimed.
    void produce_ahead() {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            changed.wait(lock, [&] {
                return stopped || next >= n || next < consumed + window;
            });
            if (stopped || next >= n) return;
            const std::size_t i = next++;
            lock.unlock();
            run(i);
            lock.lock();
        }
    }

    /// The consumer's side: waits for produce(i), running it here if no
    /// lane has claimed it yet. False when produce(i) threw.
    bool await(std::size_t i) {
        std::unique_lock<std::mutex> lock(mutex);
        if (next == i) {
            ++next;
            lock.unlock();
            run(i);
            lock.lock();
        }
        changed.wait(lock, [&] { return ready[i] != 0; });
        return errors[i] == nullptr;
    }

    void mark_consumed(std::size_t count) {
        const std::lock_guard<std::mutex> lock(mutex);
        consumed = count;
        changed.notify_all();
    }

    void stop() {
        const std::lock_guard<std::mutex> lock(mutex);
        stopped = true;
        changed.notify_all();
    }

    const std::size_t n;
    const std::size_t window;
    const std::function<void(std::size_t)>& produce;
    std::mutex mutex;
    std::condition_variable changed;
    std::size_t next = 0;      // lowest index no lane has claimed
    std::size_t consumed = 0;  // consume(i) returned for every i < consumed
    bool stopped = false;
    std::vector<unsigned char> ready;
    std::vector<std::exception_ptr> errors;
};

void ThreadPool::run_pipelined(std::size_t n,
                               const std::function<void(std::size_t)>& produce,
                               const std::function<bool(std::size_t)>& consume) {
    if (n == 0) return;
    count_batch(n);
    if (serial_here() || n == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            produce(i);
            if (!consume(i)) return;
        }
        return;
    }

    Pipeline line(n, pipeline_window(), produce);
    // Each worker runs one lane task; the batch machinery hands them out,
    // so the pipeline coexists with run_indexed batches on the same pool.
    const std::function<void(std::size_t)> lane = [&line](std::size_t) {
        line.produce_ahead();
    };
    const auto lanes = submit(size_ - 1, lane);

    std::exception_ptr error;
    for (std::size_t i = 0; i < n; ++i) {
        if (!line.await(i)) {
            error = line.errors[i];
            break;
        }
        bool more = false;
        try {
            more = consume(i);
        } catch (...) {  // ytcdn-lint: allow(catch-all) — rethrown below, after the lanes end
            error = std::current_exception();
        }
        if (error || !more) break;
        line.mark_consumed(i + 1);
    }
    line.stop();

    // Lane tasks no worker picked up run here and return at once; then
    // every started produce has ended and `line` may go.
    finish(*lanes);
    if (error) std::rethrow_exception(error);
}

void ThreadPool::run_lanes(
    std::size_t k, const std::function<void(std::size_t, std::size_t)>& lane,
    const std::function<void(std::size_t)>& consume, const std::function<void()>& abort) {
    count_batch(k);
    std::mutex failure_mutex;
    std::exception_ptr failure;
    // The first failure is kept; abort() runs after it is recorded, so the
    // PipelineAborted echoes it causes always come later and are dropped.
    const auto fail = [&](std::exception_ptr error) {
        {
            const std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure) failure = std::move(error);
        }
        abort();
    };
    std::size_t granted = 0;
    const std::function<void(std::size_t)> task = [&](std::size_t j) {
        try {
            lane(j, granted);
        } catch (...) {  // ytcdn-lint: allow(catch-all) — trampoline, rethrown on the caller
            fail(std::current_exception());
        }
    };

    std::shared_ptr<Batch> lanes;
    if (k > 0 && !serial_here()) {
        const std::lock_guard<std::mutex> lock(mutex_);
        // Only workers that are free now, and not yet promised to another
        // call's lanes; each takes a lane before any batch, so every
        // granted lane starts without waiting on other work.
        const std::size_t taken = busy_ + lanes_.size();
        granted = std::min(k, workers_.size() > taken ? workers_.size() - taken : 0);
        if (granted > 0) {
            lanes = std::make_shared<Batch>();
            lanes->n = granted;
            lanes->task = &task;
            lanes->next = granted;  // handed out through lanes_, never claimed
            for (std::size_t j = 0; j < granted; ++j) lanes_.push_back({lanes, j});
        }
    }
    if (lanes) cv_.notify_all();

    try {
        consume(granted);
    } catch (...) {  // ytcdn-lint: allow(catch-all) — rethrown below, after the lanes end
        fail(std::current_exception());
    }
    if (lanes) {
        std::unique_lock<std::mutex> lock(lanes->mutex);
        lanes->finished.wait(lock, [&] { return lanes->done.load() >= lanes->n; });
    }
    if (failure) std::rethrow_exception(failure);
}

std::shared_ptr<ThreadPool::Batch> ThreadPool::open_batch() const {
    for (const auto& b : batches_) {
        if (b->next.load() < b->n) return b;
    }
    return nullptr;
}

void ThreadPool::worker_main() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        cv_.wait(lock, [&] { return stop_ || !lanes_.empty() || open_batch() != nullptr; });
        if (stop_) return;
        if (!lanes_.empty()) {
            const LaneItem item = std::move(lanes_.front());
            lanes_.pop_front();
            ++busy_;
            lock.unlock();
            {
                const PoolScope scope(this);
                (*item.batch->task)(item.index);  // run_lanes' trampoline: never throws
            }
            if (item.batch->done.fetch_add(1) + 1 == item.batch->n) {
                const std::lock_guard<std::mutex> done(item.batch->mutex);
                item.batch->finished.notify_all();
            }
        } else if (const std::shared_ptr<Batch> batch = open_batch()) {
            ++busy_;
            lock.unlock();
            work_on(*batch);
        } else {
            // Indices are claimed outside mutex_: the batch the wait saw
            // open has been fully claimed since.
            continue;
        }
        lock.lock();
        --busy_;
    }
}

void ThreadPool::work_on(Batch& batch) {
    const PoolScope scope(this);
    for (;;) {
        const std::size_t i = batch.next.fetch_add(1);
        if (i >= batch.n) return;
        try {
            (*batch.task)(i);
        } catch (...) {  // ytcdn-lint: allow(catch-all) — trampoline, rethrown on the caller
            batch.errors[i] = std::current_exception();
        }
        if (batch.done.fetch_add(1) + 1 == batch.n) {
            const std::lock_guard<std::mutex> lock(batch.mutex);
            batch.finished.notify_all();
        }
    }
}

RingGate::RingGate(std::size_t queues, std::size_t slots) : slots_(slots), rings_(queues) {
    if (queues == 0 || slots == 0) {
        throw std::invalid_argument("RingGate: queues and slots must be > 0");
    }
}

void RingGate::wait(std::condition_variable& cv, bool& waiting,
                    std::unique_lock<std::mutex>& lock) {
    if (aborted_) throw PipelineAborted();
    waiting = true;
    cv.wait(lock);
    waiting = false;
    if (aborted_) throw PipelineAborted();
}

std::size_t RingGate::claim(std::size_t q) {
    std::unique_lock<std::mutex> lock(mutex_);
    Ring& ring = rings_.at(q);
    while (ring.published - ring.released >= slots_) {
        wait(producer_cv_, producer_waiting_, lock);
    }
    if (aborted_) throw PipelineAborted();
    return ring.published % slots_;
}

std::size_t RingGate::claim_any() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        if (aborted_) throw PipelineAborted();
        std::size_t best = kNone;
        bool open = false;
        for (std::size_t q = 0; q < rings_.size(); ++q) {
            const Ring& ring = rings_[q];
            if (ring.closed) continue;
            open = true;
            const std::size_t queued = ring.published - ring.released;
            if (queued < slots_ &&
                (best == kNone ||
                 queued < rings_[best].published - rings_[best].released)) {
                best = q;
            }
        }
        if (best != kNone || !open) return best;
        wait(producer_cv_, producer_waiting_, lock);
    }
}

void RingGate::publish(std::size_t q) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++rings_.at(q).published;
    if (consumer_waiting_) consumer_cv_.notify_one();
}

void RingGate::close(std::size_t q) {
    const std::lock_guard<std::mutex> lock(mutex_);
    rings_.at(q).closed = true;
    if (consumer_waiting_) consumer_cv_.notify_one();
}

std::size_t RingGate::next(std::size_t q) {
    std::unique_lock<std::mutex> lock(mutex_);
    const Ring& ring = rings_.at(q);
    while (ring.published == ring.released && !ring.closed) {
        wait(consumer_cv_, consumer_waiting_, lock);
    }
    if (aborted_) throw PipelineAborted();
    return ring.published == ring.released ? kNone : ring.released % slots_;
}

void RingGate::release(std::size_t q) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++rings_.at(q).released;
    if (producer_waiting_) producer_cv_.notify_one();
}

void RingGate::abort() noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    aborted_ = true;
    producer_cv_.notify_all();
    consumer_cv_.notify_all();
}

}  // namespace ytcdn::util
