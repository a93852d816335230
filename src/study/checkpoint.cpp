#include "study/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "capture/binary_log.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::study {

namespace {

constexpr std::string_view kMagic = "YCK1";
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4 + 8;  // magic..payload size
constexpr std::size_t kTrailerSize = 4;                 // crc32

constexpr std::string_view kStageNames[kNumStageIds] = {
    "simulate", "capture", "geolocate", "analyze", "render", "service",
};

/// "<what> truncated at payload byte N", N being where `in` stopped.
Error truncated(const util::ByteReader& in, std::string_view what) {
    return Error(ErrorCode::Truncated, std::string(what) +
                                           " truncated at payload byte " +
                                           std::to_string(in.offset()));
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

/// "<what> N out of range", for a declared count or length over its bound.
Error out_of_range(std::string_view what, std::uint64_t n) {
    return Error(ErrorCode::BadField, std::string(what) + " " +
                                          std::to_string(n) + " out of range");
}

}  // namespace

std::string_view to_string(Stage stage) noexcept {
    const auto i = static_cast<std::size_t>(stage);
    return i < kNumStageIds ? kStageNames[i] : "?";
}

std::filesystem::path checkpoint_path(const std::filesystem::path& run_dir,
                                      Stage stage) {
    return run_dir / "checkpoints" /
           (std::string(to_string(stage)) + ".yck");
}

util::Result<void> write_checkpoint(const std::filesystem::path& path,
                                    std::uint64_t fingerprint, Stage stage,
                                    std::string_view payload) {
    std::string buf;
    buf.reserve(kHeaderSize + payload.size() + kTrailerSize);
    buf.append(kMagic);
    util::put(buf, kCheckpointVersion);
    util::put(buf, fingerprint);
    util::put(buf, static_cast<std::uint32_t>(stage));
    util::put(buf, static_cast<std::uint64_t>(payload.size()));
    buf.append(payload);
    util::put(buf, util::crc32(buf));
    return util::io::write_file_atomic(path, buf)
        .context("checkpoint " + path.string());
}

util::Result<std::string> load_checkpoint(const std::filesystem::path& path,
                                          std::uint64_t fingerprint,
                                          Stage stage) {
    auto read = util::io::read_file(path);
    if (!read) {
        return std::move(read).context("checkpoint " + path.string()).error();
    }
    const std::string data = std::move(read).value();
    const auto fail = [&](ErrorCode code, std::string_view what) {
        return Error(code, std::string(what))
            .context("checkpoint " + path.string());
    };
    if (data.size() < kHeaderSize + kTrailerSize) {
        return fail(ErrorCode::Truncated, "file shorter than YCK1 frame");
    }
    if (data.compare(0, kMagic.size(), kMagic) != 0) {
        return fail(ErrorCode::BadMagic, "bad magic (want YCK1)");
    }
    // The size check above guarantees a whole header.
    util::ByteReader r(std::string_view(data).substr(kMagic.size()));
    const auto version = r.take<std::uint32_t>();
    const auto fp = r.take<std::uint64_t>();
    const auto stage_id = r.take<std::uint32_t>();
    const auto payload_size = r.take<std::uint64_t>();
    if (version != kCheckpointVersion) {
        return fail(ErrorCode::UnsupportedVersion,
                    "unsupported version " + std::to_string(version));
    }
    if (fp != fingerprint) {
        return fail(ErrorCode::KeyMismatch,
                    "run fingerprint mismatch (stale or foreign checkpoint)");
    }
    if (stage_id != static_cast<std::uint32_t>(stage)) {
        return fail(ErrorCode::KeyMismatch,
                    "stage mismatch: file holds '" +
                        std::string(to_string(static_cast<Stage>(stage_id))) +
                        "', want '" + std::string(to_string(stage)) + "'");
    }
    if (data.size() != kHeaderSize + payload_size + kTrailerSize) {
        return fail(ErrorCode::Truncated,
                    "payload size disagrees with file size");
    }
    const std::string_view frame(data);
    const std::string_view body = frame.substr(0, frame.size() - kTrailerSize);
    const auto crc = util::ByteReader(frame.substr(body.size())).take<std::uint32_t>();
    if (util::crc32(body) != crc) {
        return fail(ErrorCode::ChecksumMismatch, "trailer CRC mismatch");
    }
    return data.substr(kHeaderSize, payload_size);
}

std::optional<std::string> load_or_quarantine_checkpoint(
    const std::filesystem::path& path, std::uint64_t fingerprint, Stage stage,
    std::string* warning) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    auto result = load_checkpoint(path, fingerprint, stage);
    if (result) return std::move(result).value();

    // Exists but invalid: move it aside (bounded retention) and recompute
    // the stage. Checkpoint damage is never fatal.
    auto quarantined = util::io::quarantine_file(path);
    if (warning) {
        *warning = "warning: checkpoint " + path.string() +
                   " failed to load (" + result.error().what() + "); ";
        *warning += !quarantined
                        ? "quarantine rename also failed; recomputing stage"
                        : "quarantined as " +
                              quarantined.value().filename().string() +
                              " and recomputing stage";
    }
    return std::nullopt;
}

std::filesystem::path log_path(const std::filesystem::path& log_dir,
                               std::string_view name) {
    return log_dir / (std::string(name) + ".yfl");
}

namespace {

/// The Simulate payload, given each log's size and CRC-32 by index.
template <class LogDigest>
std::string encode_week(const TraceOutputs& traces, LogDigest log_digest) {
    std::string buf;
    util::put(buf, traces.events_processed);
    util::put(buf, traces.faults_injected);
    util::put(buf, static_cast<std::uint32_t>(traces.datasets.size()));
    for (std::size_t i = 0; i < traces.datasets.size(); ++i) {
        const auto& stats = traces.player_stats[i];
        util::put_str32(buf, traces.datasets[i].name);
        for (const std::uint64_t* x : stats_counters(stats)) util::put(buf, *x);
        util::put(buf, static_cast<std::uint32_t>(stats.retry_histogram.size()));
        for (const std::uint64_t x : stats.retry_histogram) util::put(buf, x);
        util::put(buf, traces.requests_generated[i]);
        util::put(buf, traces.flows_observed[i]);
        util::put(buf, traces.flows_ignored[i]);
        const auto [size, crc] = log_digest(i);
        util::put(buf, static_cast<std::uint64_t>(size));
        util::put(buf, static_cast<std::uint32_t>(crc));
    }
    return buf;
}

}  // namespace

EncodedWeek encode_traces(const TraceOutputs& traces) {
    EncodedWeek week;
    for (const auto& ds : traces.datasets) {
        week.logs.push_back(capture::write_binary_log_bytes(ds.records));
    }
    week.payload = encode_week(traces, [&week](std::size_t i) {
        return std::pair(week.logs[i].size(), util::crc32(week.logs[i]));
    });
    return week;
}

std::string encode_traces(const TraceOutputs& traces,
                          std::span<const capture::LogPieces> logs) {
    return encode_week(traces, [logs](std::size_t i) {
        return std::pair(capture::log_size(logs[i]), capture::log_crc32(logs[i]));
    });
}

util::Result<StoredWeek> load_week(std::string_view payload,
                                   const std::filesystem::path& log_dir) {
    constexpr std::uint32_t kMaxVantagePoints = 64;
    constexpr std::uint32_t kMaxLength = 1u << 20;    // names, retry histograms
    constexpr std::uint64_t kMaxLog = 1ull << 34;
    util::ByteReader r(payload);
    StoredWeek week;
    TraceOutputs& traces = week.traces;
    std::uint32_t n_vps = 0;
    if (!r.take(&traces.events_processed) || !r.take(&traces.faults_injected) ||
        !r.take(&n_vps)) {
        return truncated(r, "simulate header");
    }
    if (n_vps > kMaxVantagePoints) {
        return out_of_range("vantage-point count", n_vps);
    }
    std::vector<std::pair<std::uint64_t, std::uint32_t>> logs;  // size, crc
    for (std::uint32_t v = 0; v < n_vps; ++v) {
        capture::Dataset ds;
        workload::Player::Stats stats;
        std::uint32_t n = 0;
        if (!r.take(&n)) return truncated(r, "vantage-point name");
        if (n > kMaxLength) return out_of_range("vantage-point name length", n);
        if (!r.take_bytes(&ds.name, n)) return truncated(r, "vantage-point name");
        // The name becomes a file name under log_dir, never a path.
        if (ds.name.empty() || ds.name == "." || ds.name == ".." ||
            ds.name.find_first_of(std::string_view("/\0", 2)) != std::string::npos) {
            return Error(ErrorCode::BadField, "vantage-point name is not a file stem");
        }
        for (std::uint64_t* x : stats_counters(stats)) {
            if (!r.take(x)) return truncated(r, "player stats");
        }
        if (!r.take(&n)) return truncated(r, "retry histogram");
        if (n > kMaxLength) return out_of_range("retry histogram length", n);
        if (n > r.remaining() / 8) return truncated(r, "retry histogram");
        stats.retry_histogram.resize(n);
        for (std::uint64_t& x : stats.retry_histogram) r.take(&x);
        std::uint64_t requests = 0;
        std::uint64_t observed = 0;
        std::uint64_t ignored = 0;
        if (!r.take(&requests) || !r.take(&observed) || !r.take(&ignored)) {
            return truncated(r, "flow counters");
        }
        auto& [log_size, log_crc] = logs.emplace_back();
        if (!r.take(&log_size) || !r.take(&log_crc)) {
            return truncated(r, "flow-log size and CRC");
        }
        if (log_size > kMaxLog) return out_of_range("flow-log size", log_size);
        traces.datasets.push_back(std::move(ds));
        traces.player_stats.push_back(std::move(stats));
        traces.requests_generated.push_back(requests);
        traces.flows_observed.push_back(observed);
        traces.flows_ignored.push_back(ignored);
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "simulate payload has trailing bytes");
    }
    for (std::size_t v = 0; v < logs.size(); ++v) {
        const std::string& name = traces.datasets[v].name;
        const auto path = log_path(log_dir, name);
        auto bytes = util::io::read_file(path);
        if (!bytes) return std::move(bytes).context("flow log " + path.string()).error();
        const auto [size, crc] = logs[v];
        if (bytes.value().size() != size || util::crc32(bytes.value()) != crc) {
            return Error(ErrorCode::ChecksumMismatch,
                         "flow log " + path.string() +
                             " does not match the simulate payload's size " +
                             std::to_string(size) + " and CRC-32");
        }
        if (auto header = capture::FlowLogReader::open_bytes(bytes.value()); !header) {
            return header.error().context("flow log of vantage point '" + name + "'");
        }
        week.logs.emplace_back().push_back(std::move(bytes).value());
    }
    return week;
}

util::Result<TraceOutputs> decode_traces(std::string_view payload,
                                         const std::filesystem::path& log_dir) {
    auto week = load_week(payload, log_dir);
    if (!week) return std::move(week).error();
    TraceOutputs& traces = week.value().traces;
    for (std::size_t v = 0; v < traces.datasets.size(); ++v) {
        auto& ds = traces.datasets[v];
        auto records = capture::read_binary_log_bytes(week.value().logs[v].front());
        if (!records) {
            return records.error().context("flow log of vantage point '" +
                                           ds.name + "'");
        }
        ds.records = std::move(records).value();
        week.value().logs[v] = {};
    }
    return std::move(traces);
}

std::string encode_geolocate(const std::vector<analysis::ServerDcMap>& maps,
                             const std::vector<int>& preferred) {
    std::string buf;
    util::put(buf, static_cast<std::uint32_t>(maps.size()));
    for (std::size_t i = 0; i < maps.size(); ++i) {
        const auto& map = maps[i];
        util::put(buf, static_cast<std::uint32_t>(map.num_data_centers()));
        for (const auto& dc : map.data_centers()) {
            util::put_str32(buf, dc.name);
            util::put_f64(buf, dc.location.lat_deg);
            util::put_f64(buf, dc.location.lon_deg);
            util::put(buf, static_cast<std::uint8_t>(dc.continent));
            util::put_f64(buf, dc.rtt_ms);
            util::put_f64(buf, dc.distance_km);
        }
        // Hash-map iteration order is not deterministic; sort by /24 so the
        // payload bytes are a pure function of the map's contents.
        std::vector<std::pair<std::uint32_t, std::int32_t>> assigns;
        assigns.reserve(map.assignments().size());
        for (const auto& [ip, dc] : map.assignments()) {  // ytcdn-lint: allow(unordered-iter)
            assigns.emplace_back(ip.value(), dc);
        }
        std::sort(assigns.begin(), assigns.end());
        util::put(buf, static_cast<std::uint32_t>(assigns.size()));
        for (const auto& [ip, dc] : assigns) {
            util::put(buf, ip);
            util::put(buf, dc);
        }
        util::put(buf, static_cast<std::int32_t>(preferred[i]));
    }
    return buf;
}

util::Result<void> decode_geolocate(std::string_view payload,
                                    std::vector<analysis::ServerDcMap>* maps,
                                    std::vector<int>* preferred) {
    util::ByteReader r(payload);
    std::uint32_t n_vps = 0;
    if (!r.take(&n_vps)) return truncated(r, "vantage-point count");
    // Each vantage point needs at least its three counts (12 bytes); a
    // hostile declared count must fail cleanly, not balloon the vectors.
    if (n_vps > r.remaining() / 12) {
        return Error(ErrorCode::CountMismatch,
                     "vantage-point count " + std::to_string(n_vps) +
                         " exceeds payload size");
    }
    maps->clear();
    preferred->clear();
    maps->reserve(n_vps);
    preferred->reserve(n_vps);
    for (std::uint32_t v = 0; v < n_vps; ++v) {
        analysis::ServerDcMap map;
        std::uint32_t n_dcs = 0;
        if (!r.take(&n_dcs)) return truncated(r, "data-center count");
        for (std::uint32_t d = 0; d < n_dcs; ++d) {
            analysis::DataCenterInfo dc;
            std::uint8_t continent = 0;
            if (!r.take_str32(&dc.name) || !r.take_f64(&dc.location.lat_deg) ||
                !r.take_f64(&dc.location.lon_deg) || !r.take(&continent) ||
                !r.take_f64(&dc.rtt_ms) || !r.take_f64(&dc.distance_km)) {
                return truncated(r, "data-center record");
            }
            if (continent > static_cast<std::uint8_t>(geo::Continent::Africa)) {
                return Error(ErrorCode::BadField,
                             "unknown continent " + std::to_string(continent));
            }
            dc.continent = static_cast<geo::Continent>(continent);
            map.add_data_center(std::move(dc));
        }
        std::uint32_t n_assign = 0;
        if (!r.take(&n_assign)) return truncated(r, "assignment count");
        for (std::uint32_t a = 0; a < n_assign; ++a) {
            std::uint32_t ip = 0;
            std::int32_t dc = 0;
            if (!r.take(&ip) || !r.take(&dc)) return truncated(r, "assignment");
            if (dc < 0 || static_cast<std::uint32_t>(dc) >= n_dcs) {
                return Error(ErrorCode::BadField,
                             "assignment references data center " +
                                 std::to_string(dc) + " of " +
                                 std::to_string(n_dcs));
            }
            map.assign(net::IpAddress(ip), dc);
        }
        std::int32_t pref = 0;
        if (!r.take(&pref)) return truncated(r, "preferred index");
        if (pref < -1 || (pref >= 0 && static_cast<std::uint32_t>(pref) >= n_dcs)) {
            return Error(ErrorCode::BadField,
                         "preferred index out of range: " + std::to_string(pref));
        }
        maps->push_back(std::move(map));
        preferred->push_back(pref);
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "geolocate payload has trailing bytes");
    }
    return {};
}

std::string encode_report(const FullReport& report) {
    std::string buf;
    util::put(buf, static_cast<std::uint32_t>(report.artifacts.size()));
    for (const auto& a : report.artifacts) {
        util::put_str32(buf, a.name);
        util::put(buf, static_cast<std::uint64_t>(a.content.size()));
        buf.append(a.content);
    }
    util::put(buf, static_cast<std::uint32_t>(report.degraded.size()));
    for (const auto& name : report.degraded) util::put_str32(buf, name);
    return buf;
}

util::Result<FullReport> decode_report(std::string_view payload) {
    util::ByteReader r(payload);
    FullReport report;
    std::uint32_t n = 0;
    if (!r.take(&n)) return truncated(r, "artifact count");
    // Each artifact needs at least name length + content length (12 bytes).
    if (n > r.remaining() / 12) {
        return Error(ErrorCode::CountMismatch,
                     "artifact count " + std::to_string(n) +
                         " exceeds payload size");
    }
    report.artifacts.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        ReportArtifact a;
        std::uint64_t content_size = 0;
        if (!r.take_str32(&a.name) || !r.take(&content_size)) {
            return truncated(r, "artifact header");
        }
        if (!r.take_bytes(&a.content, content_size)) {
            return truncated(r, "artifact content");
        }
        report.artifacts.push_back(std::move(a));
    }
    std::uint32_t n_degraded = 0;
    if (!r.take(&n_degraded)) return truncated(r, "degraded count");
    if (n_degraded > r.remaining() / 4) {  // at least a name length each
        return Error(ErrorCode::CountMismatch,
                     "degraded count " + std::to_string(n_degraded) +
                         " exceeds payload size");
    }
    report.degraded.reserve(n_degraded);
    for (std::uint32_t i = 0; i < n_degraded; ++i) {
        std::string name;
        if (!r.take_str32(&name)) return truncated(r, "degraded name");
        report.degraded.push_back(std::move(name));
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "report payload has trailing bytes");
    }
    return report;
}

}  // namespace ytcdn::study
