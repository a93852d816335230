#include "study/snapshot.hpp"

#include <array>
#include <cstring>
#include <sstream>
#include <utility>

#include "capture/binary_log.hpp"
#include "sim/random.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::study {

namespace {

constexpr char kMagic[4] = {'Y', 'S', 'S', '2'};

void put_u64s(std::string& buf, const std::vector<std::uint64_t>& v) {
    util::put<std::uint32_t>(buf, static_cast<std::uint32_t>(v.size()));
    for (const std::uint64_t x : v) util::put(buf, x);
}

/// The player-stats counters in their on-disk order (the retry histogram
/// follows them); `Stats` is Player::Stats, const or not.
template <typename Stats>
auto stats_counters(Stats& s) {
    return std::array{&s.sessions,          &s.video_flows,
                      &s.control_flows,     &s.redirects_miss,
                      &s.redirects_overload, &s.resolution_probes,
                      &s.pauses,            &s.dns_cache_hits,
                      &s.connect_timeouts,  &s.connect_resets,
                      &s.dns_servfails,     &s.stale_dns_answers,
                      &s.failovers,         &s.failures.timeout,
                      &s.failures.reset,    &s.failures.dns_failure,
                      &s.failures.retries_exhausted,
                      &s.failures.redirect_exhausted};
}

void put_stats(std::string& buf, const workload::Player::Stats& s) {
    for (const std::uint64_t* x : stats_counters(s)) util::put(buf, *x);
    put_u64s(buf, s.retry_histogram);
}

// Every read failure carries the byte offset where the data ran out or
// went bad.
[[nodiscard]] Error truncated(const util::ByteReader& in, std::string_view field) {
    return error_at_byte(ErrorCode::Truncated,
                         "snapshot truncated reading " + std::string(field),
                         in.offset());
}

[[nodiscard]] Error bad_field(const util::ByteReader& in, std::string_view message) {
    return error_at_byte(ErrorCode::BadField, message, in.offset());
}

template <typename T>
[[nodiscard]] util::Result<void> get(util::ByteReader& in, T& value,
                                     std::string_view field) {
    if (!in.take(&value)) return truncated(in, field);
    return {};
}

[[nodiscard]] util::Result<void> get_string(util::ByteReader& in, std::string& s,
                                            std::string_view field) {
    std::uint32_t n = 0;
    if (auto r = get(in, n, field); !r) return r;
    if (n > (1u << 20)) {  // names are short
        return bad_field(in, "snapshot string length " + std::to_string(n) +
                                 " out of range for " + std::string(field));
    }
    if (!in.take_bytes(&s, n)) return truncated(in, field);
    return {};
}

[[nodiscard]] util::Result<void> get_u64s(util::ByteReader& in,
                                          std::vector<std::uint64_t>& v,
                                          std::string_view field) {
    std::uint32_t n = 0;
    if (auto r = get(in, n, field); !r) return r;
    if (n > (1u << 20)) {
        return bad_field(in, "snapshot array length " + std::to_string(n) +
                                 " out of range for " + std::string(field));
    }
    v.resize(n);
    for (std::uint64_t& x : v) {
        if (auto r = get(in, x, field); !r) return r;
    }
    return {};
}

[[nodiscard]] util::Result<void> get_stats(util::ByteReader& in,
                                           workload::Player::Stats& s) {
    for (std::uint64_t* x : stats_counters(s)) {
        if (auto r = get(in, *x, "player stats"); !r) return r;
    }
    return get_u64s(in, s.retry_histogram, "retry histogram");
}

/// Hash-combine in fingerprint order. Doubles contribute their exact bit
/// pattern, so any representable change — however small — changes the key.
class Fingerprint {
public:
    void mix(std::uint64_t x) { h_ = sim::mix64(h_ ^ sim::mix64(x)); }
    void mix(double x) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &x, sizeof(bits));
        mix(bits);
    }
    void mix(bool x) { mix(static_cast<std::uint64_t>(x)); }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0x5953'5332'2011ull;  // "YSS2" | paper year
};

}  // namespace

std::uint64_t config_fingerprint(const StudyConfig& config) {
    Fingerprint fp;
    fp.mix(config.seed);
    fp.mix(config.scale);
    fp.mix(static_cast<std::uint64_t>(config.catalog_size));
    fp.mix(config.zipf_exponent);
    fp.mix(config.replicate_fraction);
    fp.mix(static_cast<std::uint64_t>(config.origin_replicas));
    fp.mix(static_cast<std::uint64_t>(config.max_pulled_per_dc));
    fp.mix(static_cast<std::uint64_t>(config.server_capacity));
    fp.mix(config.p_dns_secondary_eu1);
    fp.mix(config.p_dns_secondary_us);
    fp.mix(config.p_legacy_youtube);
    fp.mix(config.p_legacy_youtube_eu2);
    fp.mix(config.p_other_as);
    fp.mix(config.p_promoted);
    fp.mix(config.eu2_local_rate_factor);
    fp.mix(config.feb2011_us_shift);
    return fp.value();
}

std::string snapshot_name(const StudyConfig& config) {
    std::ostringstream name;
    name << "trace-" << std::hex << config.seed << "-" << std::hex
         << config_fingerprint(config) << "-v" << std::dec
         << kSnapshotSchemaVersion << ".yss";
    return name.str();
}

namespace {

/// The whole snapshot: body, then a CRC-32 of every body byte.
std::string snapshot_bytes(const StudyConfig& config, const TraceOutputs& traces) {
    std::string buf(kMagic, sizeof(kMagic));
    util::put(buf, kSnapshotSchemaVersion);
    util::put(buf, config_fingerprint(config));
    util::put(buf, traces.events_processed);
    util::put(buf, traces.faults_injected);
    util::put<std::uint32_t>(buf, static_cast<std::uint32_t>(traces.datasets.size()));

    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        const auto& ds = traces.datasets[i];
        util::put_str32(buf, ds.name);
        put_stats(buf, traces.player_stats[i]);
        util::put(buf, traces.requests_generated[i]);
        util::put(buf, traces.flows_observed[i]);
        util::put(buf, traces.flows_ignored[i]);
        // Length-prefixed so the reader can carve the blob out of the
        // stream without parsing it first.
        const std::string blob = capture::write_binary_log_bytes(ds.records);
        util::put<std::uint64_t>(buf, blob.size());
        buf += blob;
    }
    util::put(buf, util::crc32(buf));
    return buf;
}

util::Result<TraceOutputs> load_snapshot_bytes(std::string_view data,
                                               const StudyConfig& config) {
    if (!config.fault_schedule.empty()) {
        return Error(ErrorCode::KeyMismatch,
                     "snapshot refused: run has a fault schedule");
    }
    constexpr std::size_t kMinSize =
        sizeof(kMagic) + sizeof(std::uint32_t) /*version*/ +
        sizeof(std::uint32_t) /*crc trailer*/;
    if (data.size() < kMinSize) {
        return error_at_byte(ErrorCode::Truncated,
                             "snapshot smaller than its fixed framing",
                             data.size());
    }
    if (data.substr(0, sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
        return error_at_byte(ErrorCode::BadMagic,
                             "snapshot magic is not 'YSS2'", 0);
    }
    const std::size_t body_size = data.size() - sizeof(std::uint32_t);
    util::ByteReader in(data.substr(0, body_size));
    in.take<std::uint32_t>();  // the magic, checked above
    const auto version = in.take<std::uint32_t>();
    if (version != kSnapshotSchemaVersion) {
        return error_at_byte(ErrorCode::UnsupportedVersion,
                             "snapshot schema version " +
                                 std::to_string(version) + " (expected " +
                                 std::to_string(kSnapshotSchemaVersion) + ")",
                             sizeof(kMagic));
    }

    // Whole-file CRC before any structural parsing: a flipped bit anywhere
    // is reported as corruption, not as whatever field it happened to land
    // in.
    const auto crc = util::ByteReader(data.substr(body_size)).take<std::uint32_t>();
    if (crc != util::crc32(data.substr(0, body_size))) {
        return error_at_byte(ErrorCode::ChecksumMismatch,
                             "snapshot CRC mismatch", body_size);
    }

    std::uint64_t fingerprint = 0;
    if (auto r = get(in, fingerprint, "fingerprint"); !r) return r.error();
    if (fingerprint != config_fingerprint(config)) {
        return error_at_byte(ErrorCode::KeyMismatch,
                             "snapshot fingerprint does not match this config",
                             sizeof(kMagic) + sizeof(std::uint32_t));
    }

    TraceOutputs traces;
    std::uint32_t vps = 0;
    if (auto r = get(in, traces.events_processed, "events_processed"); !r)
        return r.error();
    if (auto r = get(in, traces.faults_injected, "faults_injected"); !r)
        return r.error();
    if (auto r = get(in, vps, "vantage-point count"); !r) return r.error();
    if (vps > 64) {
        return bad_field(in, "snapshot vantage-point count " +
                                 std::to_string(vps) + " out of range");
    }

    for (std::uint32_t i = 0; i < vps; ++i) {
        capture::Dataset ds;
        workload::Player::Stats stats;
        std::uint64_t requests = 0;
        std::uint64_t observed = 0;
        std::uint64_t ignored = 0;
        std::uint64_t blob_size = 0;
        if (auto r = get_string(in, ds.name, "vantage-point name"); !r)
            return r.error();
        if (auto r = get_stats(in, stats); !r) return r.error();
        if (auto r = get(in, requests, "requests_generated"); !r) return r.error();
        if (auto r = get(in, observed, "flows_observed"); !r) return r.error();
        if (auto r = get(in, ignored, "flows_ignored"); !r) return r.error();
        if (auto r = get(in, blob_size, "blob size"); !r) return r.error();
        if (blob_size > (1ull << 34)) {
            return bad_field(in, "snapshot blob size " +
                                     std::to_string(blob_size) + " out of range");
        }
        std::string_view blob;
        if (!in.view(blob_size, &blob)) return truncated(in, "binary-log blob");
        auto records = capture::read_binary_log_bytes(blob);
        if (!records) {
            return records.error().context("snapshot blob for vantage point '" +
                                           ds.name + "'");
        }
        ds.records = std::move(records).value();
        traces.datasets.push_back(std::move(ds));
        traces.player_stats.push_back(std::move(stats));
        traces.requests_generated.push_back(requests);
        traces.flows_observed.push_back(observed);
        traces.flows_ignored.push_back(ignored);
    }
    // Trailing bytes mean the writer and reader disagree about layout.
    if (!in.done()) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "snapshot has trailing bytes after the last "
                             "vantage point",
                             in.offset());
    }
    return traces;
}

}  // namespace

bool write_trace_snapshot(std::ostream& os, const StudyConfig& config,
                          const TraceOutputs& traces) {
    if (!config.fault_schedule.empty()) return false;
    const std::string bytes = snapshot_bytes(config, traces);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return os.good();
}

bool write_trace_snapshot(const std::filesystem::path& path,
                          const StudyConfig& config,
                          const TraceOutputs& traces) {
    if (!config.fault_schedule.empty()) return false;
    return util::io::write_file_atomic(path, snapshot_bytes(config, traces)).ok();
}

util::Result<TraceOutputs> load_trace_snapshot_result(std::istream& is,
                                                      const StudyConfig& config) {
    const std::string data((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    if (is.bad()) return Error(ErrorCode::Io, "snapshot read failed");
    return load_snapshot_bytes(data, config);
}

util::Result<TraceOutputs> load_trace_snapshot_result(
    const std::filesystem::path& path, const StudyConfig& config) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("snapshot " + path.string()).error();
    }
    return load_snapshot_bytes(data.value(), config)
        .context("snapshot " + path.string());
}

std::optional<TraceOutputs> load_trace_snapshot(std::istream& is,
                                                const StudyConfig& config) {
    auto result = load_trace_snapshot_result(is, config);
    if (!result) return std::nullopt;
    return std::move(result).value();
}

std::optional<TraceOutputs> load_trace_snapshot(
    const std::filesystem::path& path, const StudyConfig& config) {
    auto result = load_trace_snapshot_result(path, config);
    if (!result) return std::nullopt;
    return std::move(result).value();
}

std::optional<TraceOutputs> load_or_quarantine_snapshot(
    const std::filesystem::path& path, const StudyConfig& config,
    std::string* warning) {
    if (!config.fault_schedule.empty()) return std::nullopt;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) {
        return std::nullopt;  // missing file: a plain cold-cache miss
    }
    auto result = load_trace_snapshot_result(path, config);
    if (result) return std::move(result).value();

    // The file exists but failed validation: move it aside so it cannot
    // poison the next run, and let the caller regenerate. Retention is
    // bounded (keep the newest few "<name>.corrupt.<k>" siblings) so
    // repeated corruption over a long campaign cannot fill the disk.
    // Cache damage is never fatal.
    auto quarantined = util::io::quarantine_file(path);
    if (warning) {
        *warning = "warning: snapshot " + path.string() + " failed to load (" +
                   result.error().what() + "); ";
        *warning += !quarantined
                        ? "quarantine rename also failed; regenerating"
                        : "quarantined as " +
                              quarantined.value().filename().string() +
                              " and regenerating";
    }
    return std::nullopt;
}

}  // namespace ytcdn::study
