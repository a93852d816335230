#include "service/aggregates.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "analysis/table.hpp"
#include "util/bytes.hpp"

namespace ytcdn::service {

namespace {

/// "service aggregates payload truncated at byte N".
Error truncated(const util::ByteReader& in) {
    return Error(ErrorCode::Truncated,
                 "service aggregates payload truncated at byte " +
                     std::to_string(in.offset()));
}

constexpr std::uint32_t kAggregatesVersion = 1;

void put_sorted_set(std::string& buf,
                    const std::unordered_set<std::uint32_t>& set) {
    std::vector<std::uint32_t> sorted(set.begin(), set.end());
    std::sort(sorted.begin(), sorted.end());
    util::put(buf, static_cast<std::uint32_t>(sorted.size()));
    for (const std::uint32_t v : sorted) util::put(buf, v);
}

bool take_set(util::ByteReader& r, std::unordered_set<std::uint32_t>* set) {
    std::uint32_t n = 0;
    if (!r.take(&n)) return false;
    // Capped by what the payload can hold: a corrupt count must fail as a
    // truncation below, not reserve gigabytes.
    set->reserve(std::min<std::size_t>(n, r.remaining() / sizeof(std::uint32_t)));
    for (std::uint32_t i = 0; i < n; ++i) {
        std::uint32_t v = 0;
        if (!r.take(&v)) return false;
        set->insert(v);
    }
    return true;
}

}  // namespace

void ServiceAggregates::add(const std::string& stream,
                            const capture::FlowRecord& r) {
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
        it = streams_.emplace(stream, Stream(gap_)).first;
    }
    it->second.summary.add(r);
    it->second.sessions.add(r);
    preference_.add(r);
}

std::uint64_t ServiceAggregates::total_flows() const noexcept {
    std::uint64_t total = 0;
    for (const auto& [name, stream] : streams_) total += stream.summary.flows;
    return total;
}

std::string ServiceAggregates::render() const {
    std::ostringstream os;
    os << "# ytcdnd incremental aggregates\n";
    os << "streams " << streams_.size() << "\n";
    os << "flows_total " << total_flows() << "\n\n";

    analysis::AsciiTable table1({"stream", "flows", "video flows",
                                 "volume GB", "servers", "server /24s",
                                 "clients"});
    for (const auto& [name, stream] : streams_) {
        const auto& s = stream.summary;
        table1.add_row({name, std::to_string(s.flows),
                        std::to_string(s.video_flows),
                        analysis::fmt(s.volume_gb(), 3),
                        std::to_string(s.servers.size()),
                        std::to_string(s.server_slash24s.size()),
                        std::to_string(s.clients.size())});
    }
    os << "== Table I (incremental): per-stream traffic summary ==\n"
       << table1.render() << '\n';

    analysis::AsciiTable sessions_table(
        {"stream", "sessions", "multi-flow %", "1", "2", "3", "4", "5", "6",
         "7", "8+"});
    for (const auto& [name, stream] : streams_) {
        // Close on a copy: rendering shows "sessions as if the stream ended
        // now" without mutating the live gap state.
        analysis::IncrementalSessions closed = stream.sessions;
        closed.close_all();
        const std::uint64_t total = closed.sessions_closed();
        std::vector<std::string> row{
            name, std::to_string(total),
            total == 0 ? analysis::fmt_pct(0.0)
                       : analysis::fmt_pct(
                             static_cast<double>(closed.multi_flow_sessions()) /
                             static_cast<double>(total))};
        for (std::size_t k = 1; k <= analysis::IncrementalSessions::kMaxBucket;
             ++k) {
            row.push_back(std::to_string(closed.histogram()[k]));
        }
        sessions_table.add_row(std::move(row));
    }
    os << "== Section VI (incremental): flows per video session (gap T="
       << analysis::fmt(gap_, 2) << "s) ==\n"
       << sessions_table.render() << '\n';

    os << "== Section VII (incremental): preferred data center (policy: "
       << preference_.policy() << ") ==\n";
    if (!preference_.has_map()) {
        os << "no dc map installed\n";
    } else {
        analysis::AsciiTable dc_table({"data center", "rtt ms", "drained",
                                       "scale", "flows", "GB"});
        const auto& map = preference_.map();
        for (std::size_t i = 0; i < preference_.dcs().size(); ++i) {
            const auto& dc = preference_.dcs()[i];
            const auto& info = map.info(static_cast<int>(i));
            dc_table.add_row({info.name, analysis::fmt(info.rtt_ms, 1),
                              dc.drained ? "yes" : "no",
                              analysis::fmt(dc.scale, 2),
                              std::to_string(dc.flows),
                              analysis::fmt(static_cast<double>(dc.bytes) / 1e9,
                                            3)});
        }
        os << dc_table.render();
        const int preferred = preference_.preferred_dc();
        os << "preferred_dc "
           << (preferred < 0 ? std::string("-") : map.info(preferred).name)
           << '\n';
        os << "mapped_flows " << preference_.mapped_flows << '\n';
        os << "unmapped_flows " << preference_.unmapped_flows << '\n';
        os << "non_preferred_flows " << preference_.non_preferred_flows
           << " (" << analysis::fmt_pct(preference_.non_preferred_flow_share())
           << "%)\n";
    }
    return os.str();
}

std::string ServiceAggregates::encode() const {
    std::string buf;
    util::put(buf, kAggregatesVersion);
    util::put_f64(buf, gap_);

    util::put_str32(buf, preference_.policy());
    util::put(buf, static_cast<std::uint8_t>(preference_.has_map() ? 1 : 0));
    if (preference_.has_map()) {
        std::ostringstream map_text;
        analysis::write_dc_map(map_text, preference_.map());
        util::put_str32(buf, map_text.str());
        util::put(buf, static_cast<std::uint32_t>(preference_.dcs().size()));
        for (const auto& dc : preference_.dcs()) {
            util::put(buf, static_cast<std::uint8_t>(dc.drained ? 1 : 0));
            util::put_f64(buf, dc.scale);
            util::put(buf, dc.flows);
            util::put(buf, dc.bytes);
        }
    }
    util::put(buf, preference_.mapped_flows);
    util::put(buf, preference_.unmapped_flows);
    util::put(buf, preference_.preferred_flows);
    util::put(buf, preference_.non_preferred_flows);
    util::put(buf, preference_.preferred_bytes);
    util::put(buf, preference_.non_preferred_bytes);

    util::put(buf, static_cast<std::uint32_t>(streams_.size()));
    for (const auto& [name, stream] : streams_) {
        util::put_str32(buf, name);
        const auto& s = stream.summary;
        util::put(buf, s.flows);
        util::put(buf, s.video_flows);
        util::put(buf, s.bytes);
        put_sorted_set(buf, s.servers);
        put_sorted_set(buf, s.clients);
        put_sorted_set(buf, s.server_slash24s);

        const auto& sessions = stream.sessions;
        util::put_f64(buf, sessions.watermark());
        for (std::size_t k = 1;
             k <= analysis::IncrementalSessions::kMaxBucket; ++k) {
            util::put(buf, sessions.histogram()[k]);
        }
        util::put(buf, static_cast<std::uint32_t>(sessions.open().size()));
        for (const auto& [key, open] : sessions.open()) {
            util::put(buf, key.first);
            util::put(buf, key.second);
            util::put_f64(buf, open.last_end);
            util::put(buf, open.flows);
        }
    }
    return buf;
}

util::Result<ServiceAggregates> ServiceAggregates::decode(
    std::string_view payload) {
    util::ByteReader r(payload);
    std::uint32_t version = 0;
    if (!r.take(&version)) return truncated(r);
    if (version != kAggregatesVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "service aggregates payload version " +
                         std::to_string(version));
    }
    double gap = 0.0;
    if (!r.take_f64(&gap)) return truncated(r);
    ServiceAggregates out(gap);

    std::string policy;
    if (!r.take_str32(&policy)) return truncated(r);
    std::uint8_t has_map = 0;
    if (!r.take(&has_map)) return truncated(r);
    if (has_map != 0) {
        std::string map_text;
        if (!r.take_str32(&map_text)) return truncated(r);
        try {
            std::istringstream is(map_text);
            out.preference_.set_map(analysis::read_dc_map(is));
        } catch (const std::exception& e) {
            return Error(ErrorCode::BadField,
                         std::string("service aggregates dc map: ") +
                             e.what());
        }
        std::uint32_t ndc = 0;
        if (!r.take(&ndc)) return truncated(r);
        if (ndc != out.preference_.dcs().size()) {
            return Error(ErrorCode::CountMismatch,
                         "service aggregates: dc state count " +
                             std::to_string(ndc) + " != map's " +
                             std::to_string(out.preference_.dcs().size()));
        }
        for (auto& dc : out.preference_.mutable_dcs()) {
            std::uint8_t drained = 0;
            if (!r.take(&drained) || !r.take_f64(&dc.scale) ||
                !r.take(&dc.flows) || !r.take(&dc.bytes)) {
                return truncated(r);
            }
            dc.drained = drained != 0;
        }
    }
    if (!out.preference_.set_policy(policy)) {
        return Error(ErrorCode::BadField,
                     "service aggregates: unknown policy '" + policy + "'");
    }
    if (!r.take(&out.preference_.mapped_flows) ||
        !r.take(&out.preference_.unmapped_flows) ||
        !r.take(&out.preference_.preferred_flows) ||
        !r.take(&out.preference_.non_preferred_flows) ||
        !r.take(&out.preference_.preferred_bytes) ||
        !r.take(&out.preference_.non_preferred_bytes)) {
        return truncated(r);
    }

    std::uint32_t nstreams = 0;
    if (!r.take(&nstreams)) return truncated(r);
    for (std::uint32_t i = 0; i < nstreams; ++i) {
        std::string name;
        if (!r.take_str32(&name)) return truncated(r);
        auto [it, inserted] = out.streams_.emplace(name, Stream(gap));
        if (!inserted) {
            return Error(ErrorCode::BadField,
                         "service aggregates: duplicate stream '" + name +
                             "'");
        }
        auto& s = it->second.summary;
        if (!r.take(&s.flows) || !r.take(&s.video_flows) || !r.take(&s.bytes) ||
            !take_set(r, &s.servers) || !take_set(r, &s.clients) ||
            !take_set(r, &s.server_slash24s)) {
            return truncated(r);
        }

        auto& sessions = it->second.sessions;
        double watermark = 0.0;
        if (!r.take_f64(&watermark)) return truncated(r);
        sessions.set_watermark(watermark);
        for (std::size_t k = 1;
             k <= analysis::IncrementalSessions::kMaxBucket; ++k) {
            std::uint64_t count = 0;
            if (!r.take(&count)) return truncated(r);
            sessions.restore_closed(k, count);
        }
        std::uint32_t nopen = 0;
        if (!r.take(&nopen)) return truncated(r);
        for (std::uint32_t j = 0; j < nopen; ++j) {
            std::uint32_t client = 0;
            std::uint64_t video = 0;
            analysis::IncrementalSessions::OpenSession open;
            if (!r.take(&client) || !r.take(&video) ||
                !r.take_f64(&open.last_end) || !r.take(&open.flows)) {
                return truncated(r);
            }
            sessions.restore_open({client, video}, open);
        }
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "service aggregates: trailing bytes after payload");
    }
    return out;
}

}  // namespace ytcdn::service
