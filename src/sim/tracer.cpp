#include "sim/tracer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::sim {

namespace {

constexpr char kMagic[4] = {'Y', 'T', 'R', '1'};
constexpr char kTrailerMagic[4] = {'Y', 'T', 'R', 'E'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 4 + 4 + 8 + 4;       // magic|version|count|crc
constexpr std::size_t kStringsHeaderSize = 4 + 4 + 4;    // count|bytes|crc
constexpr std::size_t kBlockHeaderSize = 4 + 4;          // events-in-block|crc
constexpr std::size_t kTrailerSize = 4 + 8 + 4;          // magic|count|crc
constexpr std::size_t kRecordSize = 56;
constexpr std::uint64_t kBlockEvents = 1024;
/// Interned strings are short entity names; a multi-gigabyte declared
/// table length is an attack on the reader, not a trace.
constexpr std::uint64_t kMaxStringBytes = 1u << 28;

constexpr std::string_view kTypeNames[kNumTraceEventTypes] = {
    "session-start", "session-end", "dns-query",    "dns-cache-hit",
    "dns-answer",    "dns-servfail", "dc-selected",  "redirect",
    "connect-fail",  "retry",        "failover",     "pause",
    "resume",        "fault",        "guard",
};

void put_event(std::string& buf, const TraceEvent& e) {
    util::put_f64(buf, e.time);
    util::put<std::uint64_t>(buf, e.seq);
    util::put<std::uint64_t>(buf, e.session);
    util::put<std::int64_t>(buf, e.a);
    util::put<std::int64_t>(buf, e.b);
    util::put_f64(buf, e.x);
    util::put<std::uint8_t>(buf, static_cast<std::uint8_t>(e.type));
    util::put<std::uint8_t>(buf, e.vp);
    util::put<std::uint16_t>(buf, e.code);
    util::put<std::uint32_t>(buf, 0);  // pad to 56 bytes
}

/// Parses one 56-byte event; the caller has checked that a whole event
/// remains in `in`.
util::Result<TraceEvent> parse_event(util::ByteReader& in, std::uint64_t index,
                                     std::uint64_t offset) {
    TraceEvent e;
    e.time = in.take<double>();
    e.seq = in.take<std::uint64_t>();
    e.session = in.take<std::uint64_t>();
    e.a = in.take<std::int64_t>();
    e.b = in.take<std::int64_t>();
    e.x = in.take<double>();
    const auto type = in.take<std::uint8_t>();
    e.vp = in.take<std::uint8_t>();
    e.code = in.take<std::uint16_t>();
    in.take<std::uint32_t>();  // padding
    if (!std::isfinite(e.time)) {
        return error_at_record(ErrorCode::BadField, "non-finite event time",
                               index, offset);
    }
    if (type >= kNumTraceEventTypes) {
        return error_at_record(ErrorCode::BadField,
                               "unknown event type " + std::to_string(type),
                               index, offset);
    }
    e.type = static_cast<TraceEventType>(type);
    return e;
}

/// Validates magic, header CRC and version; returns the declared event
/// count, which each reader then sanity-checks its own way.
util::Result<std::uint64_t> parse_header(std::string_view data) {
    if (data.size() < kHeaderSize) {
        return Error(ErrorCode::Truncated, "truncated trace header (" +
                                               std::to_string(data.size()) +
                                               " bytes)");
    }
    if (data.substr(0, sizeof(kMagic)) != std::string_view(kMagic, sizeof(kMagic))) {
        return Error(ErrorCode::BadMagic, "not a YTR1 trace stream");
    }
    util::ByteReader in(data.substr(sizeof(kMagic), kHeaderSize - sizeof(kMagic)));
    const auto version = in.take<std::uint32_t>();
    const auto count = in.take<std::uint64_t>();
    if (in.take<std::uint32_t>() != util::crc32(data.substr(0, kHeaderSize - 4))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kHeaderSize - 4);
    }
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "trace version " + std::to_string(version) +
                         " (reader supports " + std::to_string(kVersion) + ")");
    }
    return count;
}

/// Parses the string table that follows the header into `strings`;
/// returns the offset of the first event block.
util::Result<std::size_t> parse_strings(std::string_view data,
                                        std::vector<std::string>& strings) {
    std::size_t offset = kHeaderSize;
    if (data.size() - offset < kStringsHeaderSize) {
        return error_at_byte(ErrorCode::Truncated, "truncated string table",
                             offset);
    }
    util::ByteReader header(data.substr(offset, kStringsHeaderSize));
    const auto string_count = header.take<std::uint32_t>();
    const auto string_bytes = header.take<std::uint32_t>();
    const auto string_crc = header.take<std::uint32_t>();
    offset += kStringsHeaderSize;
    if (string_bytes > kMaxStringBytes ||
        string_bytes > data.size() - offset ||
        static_cast<std::uint64_t>(string_count) * 4 > string_bytes) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "string table length inconsistent", offset);
    }
    const std::string_view payload = data.substr(offset, string_bytes);
    if (util::crc32(payload) != string_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch,
                             "string table CRC mismatch", offset);
    }
    util::ByteReader in(payload);
    strings.reserve(string_count);
    for (std::uint32_t i = 0; i < string_count; ++i) {
        const std::size_t entry = offset + in.offset();
        std::uint32_t len = 0;
        if (!in.take(&len)) {
            return error_at_byte(ErrorCode::Truncated, "truncated string entry",
                                 entry);
        }
        std::string_view bytes;
        if (!in.view(len, &bytes)) {
            return error_at_byte(ErrorCode::Truncated,
                                 "string length exceeds table", entry + 4);
        }
        strings.emplace_back(bytes);
    }
    if (!in.done()) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "string table has trailing bytes", offset);
    }
    return offset + string_bytes;
}

/// The (events-in-block, payload CRC) pair of the block header at
/// `offset`; the caller has checked that a whole header remains.
std::pair<std::uint32_t, std::uint32_t> block_header(std::string_view data,
                                                     std::size_t offset) {
    util::ByteReader in(data.substr(offset, kBlockHeaderSize));
    const auto n = in.take<std::uint32_t>();
    return {n, in.take<std::uint32_t>()};
}

/// Parses the `n` events of one CRC-verified block payload into `events`.
/// `first` is the index of the block's first event and `offset` the
/// block's stream offset.
util::Result<void> parse_block(std::string_view payload, std::uint32_t n,
                               std::uint64_t first, std::size_t offset,
                               std::size_t num_strings,
                               std::vector<TraceEvent>& events) {
    util::ByteReader in(payload);
    for (std::uint32_t i = 0; i < n; ++i) {
        auto event = parse_event(in, first + i,
                                 offset + kBlockHeaderSize + i * kRecordSize);
        if (!event) return std::move(event).error();
        // An interned-string reference must resolve: fault and guard
        // events index the table through `b`.
        const TraceEvent& e = event.value();
        if ((e.type == TraceEventType::Fault || e.type == TraceEventType::Guard) &&
            (e.b < 0 || static_cast<std::uint64_t>(e.b) >= num_strings)) {
            return error_at_record(ErrorCode::BadField,
                                   "fault target index out of range",
                                   first + i, offset);
        }
        events.push_back(e);
    }
    return {};
}

/// Validates the full-size trailer at `offset` against the header's count.
util::Result<void> check_trailer(std::string_view data, std::size_t offset,
                                 std::uint64_t count) {
    const std::string_view trailer = data.substr(offset, kTrailerSize);
    if (trailer.substr(0, sizeof(kTrailerMagic)) !=
        std::string_view(kTrailerMagic, sizeof(kTrailerMagic))) {
        return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", offset);
    }
    util::ByteReader in(trailer.substr(sizeof(kTrailerMagic)));
    const auto trailer_count = in.take<std::uint64_t>();
    if (in.take<std::uint32_t>() != util::crc32(trailer.substr(0, kTrailerSize - 4))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "trailer CRC mismatch",
                             offset + kTrailerSize - 4);
    }
    if (trailer_count != count) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "trailer/header event count mismatch", offset);
    }
    return {};
}

std::uint64_t num_blocks(std::uint64_t n) {
    return (n + kBlockEvents - 1) / kBlockEvents;
}

/// %.17g: shortest formatting that round-trips a double, locale-free.
std::string fmt_double(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void append_json_escaped(std::string& out, std::string_view s) {
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
}

}  // namespace

std::string_view to_string(TraceEventType t) noexcept {
    const auto i = static_cast<std::size_t>(t);
    return i < kNumTraceEventTypes ? kTypeNames[i] : "?";
}

util::Result<TraceEventType> trace_event_type_from(std::string_view name) {
    for (std::size_t i = 0; i < kNumTraceEventTypes; ++i) {
        if (kTypeNames[i] == name) return static_cast<TraceEventType>(i);
    }
    return Error(ErrorCode::InvalidArgument,
                 "unknown trace event type '" + std::string(name) + "'");
}

TraceFilter TraceFilter::all() noexcept {
    TraceFilter f;
    f.enabled.fill(true);
    return f;
}

util::Result<TraceFilter> TraceFilter::parse(std::string_view csv) {
    TraceFilter f;  // nothing enabled yet
    std::size_t pos = 0;
    bool any = false;
    while (pos <= csv.size()) {
        const std::size_t comma = std::min(csv.find(',', pos), csv.size());
        const std::string_view name = csv.substr(pos, comma - pos);
        pos = comma + 1;
        if (name.empty()) continue;
        auto type = trace_event_type_from(name);
        if (!type) return std::move(type).error();
        f.enabled[static_cast<std::size_t>(type.value())] = true;
        any = true;
    }
    if (!any) {
        return Error(ErrorCode::InvalidArgument,
                     "empty --trace-filter (expected comma-separated event "
                     "type names)");
    }
    return f;
}

void Tracer::emit(double time, TraceEventType type, std::uint8_t vp,
                  std::uint64_t session, std::uint16_t code, std::int64_t a,
                  std::int64_t b, double x) {
    const std::uint64_t seq = next_seq_++;
    if (!filter_.accepts(type)) return;
    TraceEvent e;
    e.time = time;
    e.seq = seq;
    e.session = session;
    e.a = a;
    e.b = b;
    e.x = x;
    e.type = type;
    e.vp = vp;
    e.code = code;
    events_.push_back(e);
}

std::uint32_t Tracer::intern(std::string_view s) {
    for (std::size_t i = 0; i < strings_.size(); ++i) {
        if (strings_[i] == s) return static_cast<std::uint32_t>(i);
    }
    strings_.emplace_back(s);
    return static_cast<std::uint32_t>(strings_.size() - 1);
}

TraceLog Tracer::sorted_log() const {
    TraceLog log{strings_, events_};
    std::sort(log.events.begin(), log.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.time != b.time ? a.time < b.time : a.seq < b.seq;
              });
    return log;
}

void Tracer::clear() {
    events_.clear();
    strings_.clear();
    next_seq_ = 0;
}

std::string write_trace_bytes(const TraceLog& log) {
    std::string out;
    const auto count = static_cast<std::uint64_t>(log.events.size());
    out.reserve(kHeaderSize + kStringsHeaderSize +
                count * kRecordSize + num_blocks(count) * kBlockHeaderSize +
                kTrailerSize);

    out.append(kMagic, sizeof(kMagic));
    util::put<std::uint32_t>(out, kVersion);
    util::put<std::uint64_t>(out, count);
    util::put<std::uint32_t>(out, util::crc32(out));

    std::string strings;
    for (const std::string& s : log.strings) util::put_str32(strings, s);
    util::put<std::uint32_t>(out, static_cast<std::uint32_t>(log.strings.size()));
    util::put<std::uint32_t>(out, static_cast<std::uint32_t>(strings.size()));
    util::put<std::uint32_t>(out, util::crc32(strings));
    out += strings;

    for (std::uint64_t start = 0; start < count; start += kBlockEvents) {
        const std::uint64_t n = std::min(kBlockEvents, count - start);
        std::string block;
        block.reserve(n * kRecordSize);
        for (std::uint64_t i = 0; i < n; ++i) {
            put_event(block, log.events[start + i]);
        }
        util::put<std::uint32_t>(out, static_cast<std::uint32_t>(n));
        util::put<std::uint32_t>(out, util::crc32(block));
        out += block;
    }

    std::string trailer;
    trailer.append(kTrailerMagic, sizeof(kTrailerMagic));
    util::put<std::uint64_t>(trailer, count);
    util::put<std::uint32_t>(trailer, util::crc32(trailer));
    out += trailer;
    return out;
}

util::Result<void> write_trace_file(const std::filesystem::path& path,
                                    const TraceLog& log) {
    return util::io::write_file_atomic(path, write_trace_bytes(log));
}

util::Result<TraceLog> read_trace_bytes(std::string_view data) {
    auto header = parse_header(data);
    if (!header) return std::move(header).error();
    const std::uint64_t count = header.value();
    // Overflow-safe count sanity before any size arithmetic with it.
    if (count > data.size() / kRecordSize) {
        return Error(ErrorCode::CountMismatch,
                     "declared " + std::to_string(count) +
                         " events, stream holds " + std::to_string(data.size()) +
                         " bytes");
    }
    TraceLog log;
    auto events_at = parse_strings(data, log.strings);
    if (!events_at) return std::move(events_at).error();
    std::size_t offset = events_at.value();

    log.events.reserve(count);
    std::uint64_t parsed = 0;
    while (parsed < count) {
        if (data.size() - offset < kBlockHeaderSize) {
            return error_at_byte(ErrorCode::Truncated, "truncated block header",
                                 offset);
        }
        const auto [n, block_crc] = block_header(data, offset);
        if (n == 0 || n > kBlockEvents || n > count - parsed) {
            return error_at_byte(ErrorCode::CountMismatch,
                                 "bad block event count " + std::to_string(n),
                                 offset);
        }
        const std::size_t payload_size = n * kRecordSize;
        if (data.size() - offset - kBlockHeaderSize < payload_size) {
            return error_at_byte(ErrorCode::Truncated, "truncated event block",
                                 offset);
        }
        const std::string_view payload =
            data.substr(offset + kBlockHeaderSize, payload_size);
        if (util::crc32(payload) != block_crc) {
            return error_at_byte(ErrorCode::ChecksumMismatch,
                                 "event block CRC mismatch", offset);
        }
        if (auto r = parse_block(payload, n, parsed, offset, log.strings.size(),
                                 log.events);
            !r) {
            return std::move(r).error();
        }
        parsed += n;
        offset += kBlockHeaderSize + payload_size;
    }

    if (data.size() - offset != kTrailerSize) {
        return error_at_byte(
            ErrorCode::Truncated,
            data.size() - offset < kTrailerSize ? "truncated trailer"
                                                : "trailing bytes after trailer",
            offset);
    }
    if (auto r = check_trailer(data, offset, count); !r) return std::move(r).error();
    return log;
}

util::Result<TraceLog> read_trace_file(const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("trace " + path.string()).error();
    }
    return read_trace_bytes(std::move(data).value())
        .context("trace " + path.string());
}

util::Result<TraceSalvage> salvage_trace_bytes(std::string_view data) {
    // Header and string table: strict, same checks as read_trace_bytes —
    // except the count-vs-stream-size sanity check, which a torn tail
    // legitimately violates (the header promises events the tail lost).
    auto header = parse_header(data);
    if (!header) return std::move(header).error();
    const std::uint64_t count = header.value();
    // A tear removes tail bytes; it cannot inflate the header's count. An
    // absurd count (the CRC-valid overflow fixture) is corruption.
    if (count > (std::uint64_t{1} << 40)) {
        return Error(ErrorCode::CountMismatch,
                     "declared event count " + std::to_string(count) +
                         " is implausible");
    }
    TraceSalvage out;
    out.declared_events = count;
    auto events_at = parse_strings(data, out.log.strings);
    if (!events_at) return std::move(events_at).error();
    std::size_t offset = events_at.value();

    // Event blocks: keep every block whose CRC verifies; stop at the tear.
    const auto torn = [&](std::string note) {
        out.complete = false;
        out.note = std::move(note);
        return out;
    };
    std::uint64_t parsed = 0;
    while (parsed < count) {
        if (data.size() - offset < kBlockHeaderSize) {
            return torn("tail torn at byte " + std::to_string(offset) +
                        ": partial block header");
        }
        const auto [n, block_crc] = block_header(data, offset);
        if (n == 0 || n > kBlockEvents || n > count - parsed) {
            return torn("tail torn at byte " + std::to_string(offset) +
                        ": implausible block count " + std::to_string(n));
        }
        const std::size_t payload_size = n * kRecordSize;
        if (data.size() - offset - kBlockHeaderSize < payload_size) {
            return torn("tail torn at byte " + std::to_string(offset) +
                        ": block holds " + std::to_string(n) +
                        " events but the stream ends first");
        }
        const std::string_view payload =
            data.substr(offset + kBlockHeaderSize, payload_size);
        if (util::crc32(payload) != block_crc) {
            return error_at_byte(ErrorCode::ChecksumMismatch,
                                 "event block CRC mismatch", offset);
        }
        if (auto r = parse_block(payload, n, parsed, offset,
                                 out.log.strings.size(), out.log.events);
            !r) {
            return std::move(r).error();
        }
        parsed += n;
        offset += kBlockHeaderSize + payload_size;
    }

    if (data.size() - offset < kTrailerSize) {
        return torn("tail torn at byte " + std::to_string(offset) +
                    ": trailer missing");
    }
    // Every event arrived; a full-size but invalid trailer is corruption.
    if (data.size() - offset != kTrailerSize) {
        return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", offset);
    }
    if (auto r = check_trailer(data, offset, count); !r) return std::move(r).error();
    out.complete = true;
    return out;
}

util::Result<TraceSalvage> salvage_trace_file(
    const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("trace " + path.string()).error();
    }
    return salvage_trace_bytes(std::move(data).value())
        .context("trace " + path.string());
}

std::string render_trace_jsonl(const TraceLog& log) {
    std::string out;
    for (const TraceEvent& e : log.events) {
        out += "{\"t\":";
        out += fmt_double(e.time);
        out += ",\"seq\":";
        out += std::to_string(e.seq);
        out += ",\"type\":\"";
        out += to_string(e.type);
        out += "\",\"vp\":";
        out += std::to_string(e.vp);
        out += ",\"session\":";
        out += std::to_string(e.session);
        out += ",\"code\":";
        out += std::to_string(e.code);
        out += ",\"a\":";
        out += std::to_string(e.a);
        out += ",\"b\":";
        out += std::to_string(e.b);
        out += ",\"x\":";
        out += fmt_double(e.x);
        if ((e.type == TraceEventType::Fault ||
             e.type == TraceEventType::Guard) &&
            e.b >= 0 &&
            static_cast<std::uint64_t>(e.b) < log.strings.size()) {
            out += ",\"target\":\"";
            append_json_escaped(out, log.strings[static_cast<std::size_t>(e.b)]);
            out += "\"";
        }
        out += "}\n";
    }
    return out;
}

util::Result<void> write_trace_jsonl(const std::filesystem::path& path,
                                     const TraceLog& log) {
    return util::io::write_file_atomic(path, render_trace_jsonl(log));
}

std::vector<SessionTimeline> session_timelines(const TraceLog& log) {
    // std::map, not unordered: the returned order is part of trace_dump's
    // byte-stable output.
    std::map<std::pair<std::uint8_t, std::uint64_t>, SessionTimeline> grouped;
    for (const TraceEvent& e : log.events) {
        if (e.session == 0) continue;
        auto& timeline = grouped[{e.vp, e.session}];
        timeline.vp = e.vp;
        timeline.session = e.session;
        timeline.events.push_back(e);
    }
    std::vector<SessionTimeline> out;
    out.reserve(grouped.size());
    for (auto& [key, timeline] : grouped) out.push_back(std::move(timeline));
    return out;
}

TraceValidation validate_trace(const TraceLog& log, int max_retries) {
    TraceValidation v;
    v.events = log.events.size();
    const auto note = [&v](std::string problem) {
        // Cap the report: a hostile trace must not balloon the validator.
        if (v.problems.size() < 50) v.problems.push_back(std::move(problem));
    };

    double last_time = -std::numeric_limits<double>::infinity();
    for (const TraceEvent& e : log.events) {
        if (e.time < last_time) {
            note("time goes backwards at seq " + std::to_string(e.seq));
        }
        last_time = std::max(last_time, e.time);
    }

    for (const SessionTimeline& timeline : session_timelines(log)) {
        ++v.sessions;
        const std::string who = "session vp" + std::to_string(timeline.vp) + "/" +
                                std::to_string(timeline.session);
        std::uint64_t starts = 0;
        std::uint64_t ends = 0;
        std::uint64_t retries = 0;
        bool end_before_start = false;
        for (const TraceEvent& e : timeline.events) {
            if (e.type == TraceEventType::SessionStart) ++starts;
            if (e.type == TraceEventType::SessionEnd) {
                ++ends;
                if (starts == 0) end_before_start = true;
            }
            if (e.type == TraceEventType::Retry) {
                ++retries;
                v.max_retries_seen = std::max(v.max_retries_seen,
                                              static_cast<std::uint64_t>(e.code));
            }
        }
        if (starts != 1) {
            note(who + ": " + std::to_string(starts) + " session-start events");
        }
        if (ends != 1) {
            note(who + ": " + std::to_string(ends) +
                 " session-end events (want exactly 1)");
        }
        if (end_before_start) note(who + ": session-end precedes session-start");
        if (retries > static_cast<std::uint64_t>(std::max(0, max_retries))) {
            note(who + ": " + std::to_string(retries) +
                 " retries exceed the configured bound " +
                 std::to_string(max_retries));
        }
    }
    return v;
}

}  // namespace ytcdn::sim
