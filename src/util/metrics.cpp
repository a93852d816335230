#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace ytcdn::util::metrics {

namespace {

/// Fixed shard capacity: one slot per counter/gauge, bounds+2 per
/// histogram. 4096 slots (32 KiB per thread) is two orders of magnitude
/// above current usage; exceeding it throws at registration, never at
/// write time.
constexpr std::uint32_t kShardSlots = 4096;

std::uint64_t next_registry_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of (registry id -> this thread's shard slots). Keyed
/// by id, not pointer, so an entry for a destroyed test registry can
/// never be revived by an address reuse; stale entries are simply never
/// matched again. Linear scan: a thread touches one or two registries.
struct TlsEntry {
    std::uint64_t registry_id;
    std::atomic<std::uint64_t>* slots;
};
thread_local std::vector<TlsEntry> t_shards;

/// Registries alive now, by id: an exiting thread hands its shards back
/// only to a registry found here. Leaked like Registry::global(), so a
/// thread that exits during static destruction still finds it.
struct LiveRegistries {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, Registry*> by_id;
};

LiveRegistries& live_registries() {
    static LiveRegistries* const live = new LiveRegistries();  // ytcdn-lint: allow(raw-new-delete)
    return *live;
}

/// Shortest round-trippable formatting for histogram bounds ("5", "0.5",
/// "1e+06") — locale-free and deterministic for any fixed bound list.
std::string fmt_bound(double b) {
    std::ostringstream os;
    os << b;
    return os.str();
}

}  // namespace

struct Registry::Shard {
    Shard() : slots(kShardSlots) {}  // value-initialized: all zero
    std::vector<std::atomic<std::uint64_t>> slots;
};

/// The shards one thread adopted, returned to their registries' free
/// lists when the thread exits. Only adopt_shard() touches it, so the
/// per-add lookup in local_slots() carries no extra destructor guard.
struct Registry::ThreadShards {
    std::vector<std::pair<std::uint64_t, Shard*>> adopted;  // registry id

    ThreadShards() = default;
    ThreadShards(const ThreadShards&) = delete;
    ThreadShards& operator=(const ThreadShards&) = delete;
    ~ThreadShards() {
        LiveRegistries& live = live_registries();
        const std::lock_guard<std::mutex> live_lock(live.mutex);
        for (const auto& [id, shard] : adopted) {
            const auto it = live.by_id.find(id);
            if (it == live.by_id.end()) continue;  // registry destroyed
            Registry& registry = *it->second;
            const std::lock_guard<std::mutex> lock(registry.mutex_);
            registry.free_shards_.push_back(shard);
        }
    }
};

struct Histogram::Meta {
    Registry* registry = nullptr;
    std::uint32_t first_slot = 0;
    std::vector<double> bounds;
};

struct Registry::Metric {
    std::string name;
    SnapshotEntry::Kind kind = SnapshotEntry::Kind::Counter;
    std::uint32_t first_slot = 0;
    std::uint32_t num_slots = 1;
    Histogram::Meta hist;  // populated for histograms only
};

Registry::Registry() : id_(next_registry_id()) {
    LiveRegistries& live = live_registries();
    const std::lock_guard<std::mutex> lock(live.mutex);
    live.by_id.emplace(id_, this);
}

Registry::~Registry() {
    LiveRegistries& live = live_registries();
    const std::lock_guard<std::mutex> lock(live.mutex);
    live.by_id.erase(id_);
}

Registry& Registry::global() {
    // Leaked on purpose: instrumentation in static destructors must not
    // touch a dead registry.
    static Registry* const registry = new Registry();  // ytcdn-lint: allow(raw-new-delete)
    return *registry;
}

std::atomic<std::uint64_t>* Registry::local_slots() noexcept {
    for (const TlsEntry& e : t_shards) {
        if (e.registry_id == id_) return e.slots;
    }
    return adopt_shard();
}

std::atomic<std::uint64_t>* Registry::adopt_shard() {
    // A recycled shard keeps the exited thread's counts: they still belong
    // in every merge, and adding to them sums the same.
    Shard* shard = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (free_shards_.empty()) {
            shards_.push_back(std::make_unique<Shard>());
            shard = shards_.back().get();
            // Room for every shard, so the hand-back at thread exit (a
            // destructor) never allocates.
            free_shards_.reserve(shards_.size());
        } else {
            shard = free_shards_.back();
            free_shards_.pop_back();
        }
    }
    static thread_local ThreadShards t_adopted;
    t_adopted.adopted.emplace_back(id_, shard);
    std::atomic<std::uint64_t>* slots = shard->slots.data();
    t_shards.push_back(TlsEntry{id_, slots});
    return slots;
}

void Registry::add(std::uint32_t slot, std::uint64_t n) noexcept {
    local_slots()[slot].fetch_add(n, std::memory_order_relaxed);
}

void Registry::max_up(std::uint32_t slot, std::uint64_t v) noexcept {
    std::atomic<std::uint64_t>& cell = local_slots()[slot];
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    // The shard is this thread's own; the loop only guards against the
    // theoretical torn view a concurrent snapshot cannot cause.
    while (cur < v &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

Registry::Metric* Registry::find_or_register(std::string_view name,
                                             SnapshotEntry::Kind kind,
                                             std::vector<double> bounds,
                                             std::uint32_t slots_needed) {
    if (name.empty()) {
        throw std::invalid_argument("metrics: empty metric name");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_name_.find(std::string(name));
    if (it != by_name_.end()) {
        Metric* m = it->second;
        if (m->kind != kind || m->hist.bounds != bounds) {
            throw std::logic_error("metrics: '" + std::string(name) +
                                   "' re-registered with a different kind "
                                   "or bucket bounds");
        }
        return m;
    }
    if (next_slot_ + slots_needed > kShardSlots) {
        throw std::length_error("metrics: shard capacity exhausted");
    }
    metrics_.push_back(Metric{std::string(name), kind, next_slot_, slots_needed,
                              Histogram::Meta{this, next_slot_, std::move(bounds)}});
    Metric* m = &metrics_.back();
    next_slot_ += slots_needed;
    by_name_.emplace(m->name, m);
    return m;
}

Counter Registry::counter(std::string_view name) {
    Metric* m = find_or_register(name, SnapshotEntry::Kind::Counter, {}, 1);
    return Counter(this, m->first_slot);
}

Gauge Registry::gauge(std::string_view name) {
    Metric* m = find_or_register(name, SnapshotEntry::Kind::Gauge, {}, 1);
    return Gauge(this, m->first_slot);
}

Histogram Registry::histogram(std::string_view name, std::vector<double> bounds) {
    if (bounds.empty()) {
        throw std::invalid_argument("metrics: histogram '" + std::string(name) +
                                    "' needs at least one bucket bound");
    }
    if (!std::is_sorted(bounds.begin(), bounds.end()) ||
        std::adjacent_find(bounds.begin(), bounds.end()) != bounds.end()) {
        throw std::invalid_argument("metrics: histogram '" + std::string(name) +
                                    "' bounds must be strictly increasing");
    }
    // bounds.size() finite buckets + the +inf bucket + the count slot.
    const auto slots = static_cast<std::uint32_t>(bounds.size() + 2);
    Metric* m = find_or_register(name, SnapshotEntry::Kind::Histogram,
                                 std::move(bounds), slots);
    return Histogram(&m->hist);
}

void Counter::inc(std::uint64_t n) const noexcept {
    if (registry_ != nullptr) registry_->add(slot_, n);
}

void Gauge::update_max(std::uint64_t v) const noexcept {
    if (registry_ != nullptr) registry_->max_up(slot_, v);
}

void Histogram::observe(double v) const noexcept {
    if (meta_ == nullptr) return;
    const std::vector<double>& bounds = meta_->bounds;
    std::size_t bucket = bounds.size();  // +inf (also catches NaN)
    if (!std::isnan(v)) {
        bucket = static_cast<std::size_t>(
            std::lower_bound(bounds.begin(), bounds.end(), v) - bounds.begin());
    }
    meta_->registry->add(meta_->first_slot + static_cast<std::uint32_t>(bucket), 1);
    meta_->registry->add(
        meta_->first_slot + static_cast<std::uint32_t>(bounds.size() + 1), 1);
}

Snapshot Registry::snapshot() const {
    Snapshot snap;
    const std::lock_guard<std::mutex> lock(mutex_);
    snap.entries.reserve(metrics_.size());
    const auto merged = [this](std::uint32_t slot, bool take_max) {
        std::uint64_t out = 0;
        for (const auto& shard : shards_) {
            const std::uint64_t v =
                shard->slots[slot].load(std::memory_order_relaxed);
            out = take_max ? std::max(out, v) : out + v;
        }
        return out;
    };
    for (const Metric& m : metrics_) {
        SnapshotEntry e;
        e.name = m.name;
        e.kind = m.kind;
        if (m.kind == SnapshotEntry::Kind::Histogram) {
            e.bounds = m.hist.bounds;
            e.buckets.reserve(e.bounds.size() + 1);
            for (std::size_t i = 0; i <= e.bounds.size(); ++i) {
                e.buckets.push_back(
                    merged(m.first_slot + static_cast<std::uint32_t>(i), false));
            }
            e.count = merged(
                m.first_slot + static_cast<std::uint32_t>(e.bounds.size() + 1),
                false);
        } else {
            e.value = merged(m.first_slot, m.kind == SnapshotEntry::Kind::Gauge);
        }
        snap.entries.push_back(std::move(e));
    }
    std::sort(snap.entries.begin(), snap.entries.end(),
              [](const SnapshotEntry& a, const SnapshotEntry& b) {
                  return a.name < b.name;
              });
    return snap;
}

void Registry::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& shard : shards_) {
        for (auto& slot : shard->slots) slot.store(0, std::memory_order_relaxed);
    }
}

std::size_t Registry::num_metrics() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return metrics_.size();
}

std::size_t Registry::num_shards() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

std::string Snapshot::render() const {
    std::ostringstream os;
    os << "# ytcdn metrics v1\n";
    for (const SnapshotEntry& e : entries) {
        switch (e.kind) {
            case SnapshotEntry::Kind::Counter:
                os << "counter " << e.name << ' ' << e.value << '\n';
                break;
            case SnapshotEntry::Kind::Gauge:
                os << "gauge " << e.name << ' ' << e.value << '\n';
                break;
            case SnapshotEntry::Kind::Histogram:
                os << "histogram " << e.name << " count=" << e.count;
                for (std::size_t i = 0; i < e.buckets.size(); ++i) {
                    if (i < e.bounds.size()) {
                        os << " le_" << fmt_bound(e.bounds[i]) << '=' << e.buckets[i];
                    } else {
                        os << " inf=" << e.buckets[i];
                    }
                }
                os << '\n';
                break;
        }
    }
    return os.str();
}

std::string Snapshot::to_json() const {
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const SnapshotEntry& e : entries) {
        if (!first) os << ",";
        first = false;
        os << "\n  \"" << e.name << "\": ";
        switch (e.kind) {
            case SnapshotEntry::Kind::Counter:
            case SnapshotEntry::Kind::Gauge:
                os << e.value;
                break;
            case SnapshotEntry::Kind::Histogram: {
                os << "{\"count\": " << e.count << ", \"buckets\": [";
                for (std::size_t i = 0; i < e.buckets.size(); ++i) {
                    os << (i != 0 ? ", " : "") << e.buckets[i];
                }
                os << "], \"bounds\": [";
                for (std::size_t i = 0; i < e.bounds.size(); ++i) {
                    os << (i != 0 ? ", " : "") << fmt_bound(e.bounds[i]);
                }
                os << "]}";
                break;
            }
        }
    }
    os << (entries.empty() ? "}" : "\n}");
    return os.str();
}

Counter counter(std::string_view name) { return Registry::global().counter(name); }

Gauge gauge(std::string_view name) { return Registry::global().gauge(name); }

Histogram histogram(std::string_view name, std::vector<double> bounds) {
    return Registry::global().histogram(name, std::move(bounds));
}

}  // namespace ytcdn::util::metrics
