#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ytcdn::util::metrics {

/// Process-wide registry of named counters, gauges and fixed-bucket
/// histograms — the "what happened inside" companion to the paper
/// artifacts. Writes go to lock-free per-thread shards (relaxed atomic
/// adds, no contention on the hot path); snapshot() merges the shards
/// under the registry mutex and renders in sorted-name order.
///
/// Determinism contract (see DESIGN.md §11): every merge is a
/// permutation-invariant fold — counters sum, gauges take the maximum,
/// histograms sum per bucket — and every recorded value is an integer
/// count, so a snapshot taken after a ThreadPool join is byte-identical
/// at any YTCDN_THREADS. Instrumentation must therefore count logical
/// work units (sessions, queries, tasks), never scheduling accidents
/// (which worker ran, queue wait times).
///
/// A thread's shards outlive it: at thread exit they go to their
/// registry's free list, counts intact, and the next new thread adopts
/// one. The shard count is bounded by the most threads alive at once, and
/// a merge over recycled shards is the same sum and maximum.
///
/// Metric names are dotted lowercase paths ("cdn.dns.queries"); the
/// `metrics-name-literal` lint rule keeps them string literals so the
/// registry stays statically enumerable.
class Registry;

/// Monotonic event count. inc() is a relaxed fetch_add on this thread's
/// shard; handles are cheap to copy and are usually captured once in a
/// function-local static.
class Counter {
public:
    Counter() = default;
    void inc(std::uint64_t n = 1) const noexcept;

private:
    friend class Registry;
    Counter(Registry* registry, std::uint32_t slot)
        : registry_(registry), slot_(slot) {}
    Registry* registry_ = nullptr;
    std::uint32_t slot_ = 0;
};

/// High-water mark. update_max(v) keeps the largest value seen on this
/// thread's shard; the snapshot merge takes the maximum across shards,
/// which is permutation- and thread-count-invariant (unlike last-writer
/// semantics, which would not be).
class Gauge {
public:
    Gauge() = default;
    void update_max(std::uint64_t v) const noexcept;

private:
    friend class Registry;
    Gauge(Registry* registry, std::uint32_t slot)
        : registry_(registry), slot_(slot) {}
    Registry* registry_ = nullptr;
    std::uint32_t slot_ = 0;
};

/// Fixed-bucket histogram: bucket i counts observations v <= bounds[i]
/// (a final implicit +inf bucket catches the rest). Bounds are fixed at
/// registration so per-thread shards hold nothing but bucket counts and
/// merge by per-bucket sum.
class Histogram {
public:
    Histogram() = default;
    void observe(double v) const noexcept;

private:
    friend class Registry;
    struct Meta;
    explicit Histogram(const Meta* meta) : meta_(meta) {}
    const Meta* meta_ = nullptr;
};

/// One merged metric in a snapshot.
struct SnapshotEntry {
    enum class Kind { Counter, Gauge, Histogram };
    std::string name;
    Kind kind = Kind::Counter;
    std::uint64_t value = 0;             // counter total or gauge max
    std::vector<double> bounds;          // histogram upper bounds
    std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (last = +inf)
    std::uint64_t count = 0;             // histogram observation total

    friend bool operator==(const SnapshotEntry&, const SnapshotEntry&) = default;
};

/// A merged, name-sorted view of the registry at one instant.
struct Snapshot {
    std::vector<SnapshotEntry> entries;

    /// Line-oriented text document. The header line alone is the stable
    /// empty-registry rendering; every other line is one metric in name
    /// order, integers only, so equal registries render byte-identically.
    [[nodiscard]] std::string render() const;
    /// The same content as one flat JSON object keyed by metric name.
    [[nodiscard]] std::string to_json() const;
};

class Registry {
public:
    Registry();
    ~Registry();
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    /// The process-wide registry all `metrics::counter(...)` free helpers
    /// use. Never destroyed before exit.
    static Registry& global();

    /// Create-or-get by name. Re-registering an existing name with a
    /// different kind (or different histogram bounds) throws
    /// std::logic_error: one name, one meaning, process-wide.
    [[nodiscard]] Counter counter(std::string_view name);
    [[nodiscard]] Gauge gauge(std::string_view name);
    [[nodiscard]] Histogram histogram(std::string_view name,
                                      std::vector<double> bounds);

    /// Merges every per-thread shard into a name-sorted snapshot. Safe to
    /// call concurrently with writers; for a deterministic result call it
    /// after the writing stage has joined (ThreadPool::run_indexed joins).
    [[nodiscard]] Snapshot snapshot() const;

    /// Zeroes every shard slot (registrations survive). Tests call this to
    /// measure one stage in isolation.
    void reset();

    [[nodiscard]] std::size_t num_metrics() const;
    [[nodiscard]] std::size_t num_shards() const;

private:
    friend class Counter;
    friend class Gauge;
    friend class Histogram;

    struct Shard;
    struct Metric;
    struct ThreadShards;

    void add(std::uint32_t slot, std::uint64_t n) noexcept;
    void max_up(std::uint32_t slot, std::uint64_t v) noexcept;
    [[nodiscard]] std::atomic<std::uint64_t>* local_slots() noexcept;
    [[nodiscard]] std::atomic<std::uint64_t>* adopt_shard();
    [[nodiscard]] Metric* find_or_register(std::string_view name,
                                           SnapshotEntry::Kind kind,
                                           std::vector<double> bounds,
                                           std::uint32_t slots_needed);

    const std::uint64_t id_;  // never recycled; keys the thread-local cache
    mutable std::mutex mutex_;
    std::deque<Metric> metrics_;  // deque: handles keep stable pointers
    std::unordered_map<std::string, Metric*> by_name_;
    std::vector<std::unique_ptr<Shard>> shards_;
    /// Shards whose thread has exited, for the next new thread to adopt.
    std::vector<Shard*> free_shards_;
    std::uint32_t next_slot_ = 0;
};

/// Shorthands on Registry::global().
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
[[nodiscard]] Histogram histogram(std::string_view name,
                                  std::vector<double> bounds);

}  // namespace ytcdn::util::metrics
