#include "service/aggregates.hpp"

#include <algorithm>
#include <cmath>
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

constexpr std::uint32_t kAggregatesVersion = 2;

void put_sorted_set(std::string& buf, const util::FlatU32Set& set) {
    const std::vector<std::uint32_t> sorted = set.sorted();
    util::put(buf, static_cast<std::uint32_t>(sorted.size()));
    for (const std::uint32_t v : sorted) util::put(buf, v);
}

bool take_set(util::ByteReader& r, util::FlatU32Set* set) {
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

ServiceAggregates::Stream& ServiceAggregates::stream(const std::string& name) {
    auto it = streams_.find(name);
    if (it == streams_.end()) it = streams_.emplace(name, Stream(gap_)).first;
    return it->second;
}

void ServiceAggregates::add(Stream& s,
                            std::span<const capture::FlowRecord> records) {
    const bool mapped = has_map();
    for (const auto& r : records) {
        s.summary.add(r);
        s.sessions.add(r);
        if (!mapped) continue;
        const int dc = map_.dc_of(r.server_ip);
        if (dc < 0) {
            ++s.unmapped_flows;
        } else {
            s.dc_traffic.add(r, dc);
        }
    }
}

void ServiceAggregates::add(const std::string& name,
                            const capture::FlowRecord& r) {
    add(stream(name), std::span(&r, 1));
}

void ServiceAggregates::set_map(analysis::ServerDcMap map) {
    map_ = std::move(map);
    for (auto& [name, stream] : streams_) {
        stream.dc_traffic = {};
        stream.unmapped_flows = 0;
    }
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
        const auto histogram = closed.histogram();
        std::vector<std::string> row{
            name, std::to_string(total),
            total == 0 ? analysis::fmt_pct(0.0)
                       : analysis::fmt_pct(
                             static_cast<double>(closed.multi_flow_sessions()) /
                             static_cast<double>(total))};
        for (std::size_t k = 1; k <= analysis::IncrementalSessions::kMaxBucket;
             ++k) {
            row.push_back(std::to_string(histogram[k]));
        }
        sessions_table.add_row(std::move(row));
    }
    os << "== Section VI (incremental): flows per video session (gap T="
       << analysis::fmt(gap_, 2) << "s) ==\n"
       << sessions_table.render() << '\n';

    os << "== Section VII (incremental): preferred data center by bytes, "
          "per stream ==\n";
    if (!has_map()) {
        os << "no dc map installed\n";
        return os.str();
    }
    analysis::AsciiTable dc_table({"stream", "preferred DC", "rtt ms",
                                   "mapped video flows", "unmapped flows",
                                   "preferred byte %", "non-preferred flow %"});
    for (const auto& [name, stream] : streams_) {
        std::uint64_t video_flows = 0;
        for (const auto& t : stream.dc_traffic.traffic()) {
            video_flows += t.video_flows;
        }
        const int preferred = stream.dc_traffic.preferred(map_);
        if (preferred < 0) {
            dc_table.add_row({name, "-", "-", std::to_string(video_flows),
                              std::to_string(stream.unmapped_flows), "-", "-"});
            continue;
        }
        const auto share = stream.dc_traffic.share(preferred);
        const auto& info = map_.info(preferred);
        dc_table.add_row({name, info.name, analysis::fmt(info.rtt_ms, 1),
                          std::to_string(video_flows),
                          std::to_string(stream.unmapped_flows),
                          analysis::fmt_pct(1.0 - share.byte_fraction, 1),
                          analysis::fmt_pct(share.flow_fraction, 1)});
    }
    os << dc_table.render();
    return os.str();
}

std::string ServiceAggregates::encode() const {
    std::string buf;
    util::put(buf, kAggregatesVersion);
    util::put_f64(buf, gap_);

    std::ostringstream map_text;
    if (has_map()) analysis::write_dc_map(map_text, map_);
    util::put_str32(buf, map_text.str());

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

        // The eager split: expired sessions the grouper still holds count in
        // the histogram, and open() holds only the live ones.
        const auto& sessions = stream.sessions;
        util::put_f64(buf, sessions.watermark());
        const auto histogram = sessions.histogram();
        for (std::size_t k = 1;
             k <= analysis::IncrementalSessions::kMaxBucket; ++k) {
            util::put(buf, histogram[k]);
        }
        const auto open_sessions = sessions.open();
        util::put(buf, static_cast<std::uint32_t>(open_sessions.size()));
        for (const auto& [key, open] : open_sessions) {
            util::put(buf, key.first);
            util::put(buf, key.second);
            util::put_f64(buf, open.last_end);
            util::put(buf, open.flows);
        }

        auto tallies = stream.dc_traffic.traffic();
        std::sort(tallies.begin(), tallies.end(),
                  [](const analysis::DcTraffic& a, const analysis::DcTraffic& b) {
                      return a.dc < b.dc;
                  });
        util::put(buf, static_cast<std::uint32_t>(tallies.size()));
        for (const auto& t : tallies) {
            util::put(buf, static_cast<std::uint32_t>(t.dc));
            util::put(buf, t.bytes);
            util::put(buf, t.video_flows);
        }
        util::put(buf, stream.unmapped_flows);
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
    if (!std::isfinite(gap) || gap < 0.0) {
        return Error(ErrorCode::BadField,
                     "service aggregates: session gap " + std::to_string(gap) +
                         " is not a finite, non-negative number of seconds");
    }
    ServiceAggregates out(gap);

    std::string map_text;
    if (!r.take_str32(&map_text)) return truncated(r);
    if (!map_text.empty()) {
        try {
            std::istringstream is(map_text);
            out.set_map(analysis::read_dc_map(is));
        } catch (const std::exception& e) {
            return Error(ErrorCode::BadField,
                         std::string("service aggregates dc map: ") +
                             e.what());
        }
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
        // Session times decide expiry: a NaN end never expires, so its
        // session would be held forever. NaN and infinity are rejected here.
        const auto not_finite = [&name](const char* field) {
            return Error(ErrorCode::BadField,
                         std::string("service aggregates: non-finite ") +
                             field + " in stream '" + name + "'");
        };
        double watermark = 0.0;
        if (!r.take_f64(&watermark)) return truncated(r);
        if (!std::isfinite(watermark)) return not_finite("watermark");
        sessions.set_watermark(watermark);
        for (std::size_t k = 1;
             k <= analysis::IncrementalSessions::kMaxBucket; ++k) {
            std::uint64_t count = 0;
            if (!r.take(&count)) return truncated(r);
            sessions.restore_closed(k, count);
        }
        std::uint32_t nopen = 0;
        if (!r.take(&nopen)) return truncated(r);
        analysis::IncrementalSessions::Key prev_key{};
        for (std::uint32_t j = 0; j < nopen; ++j) {
            std::uint32_t client = 0;
            std::uint64_t video = 0;
            analysis::IncrementalSessions::OpenSession open;
            if (!r.take(&client) || !r.take(&video) ||
                !r.take_f64(&open.last_end) || !r.take(&open.flows)) {
                return truncated(r);
            }
            if (!std::isfinite(open.last_end)) return not_finite("session end");
            // Strictly ascending, as encode() writes the sorted open set.
            const analysis::IncrementalSessions::Key key{client, video};
            if (j > 0 && !(prev_key < key)) {
                return Error(ErrorCode::BadField,
                             "service aggregates: open session " +
                                 std::to_string(j) + " of stream '" + name +
                                 "' is out of key order");
            }
            sessions.restore(key, open);
            prev_key = key;
        }

        std::uint32_t ntallies = 0;
        if (!r.take(&ntallies)) return truncated(r);
        int prev_dc = -1;
        for (std::uint32_t j = 0; j < ntallies; ++j) {
            std::uint32_t dc = 0;
            analysis::DcTraffic t;
            if (!r.take(&dc) || !r.take(&t.bytes) || !r.take(&t.video_flows)) {
                return truncated(r);
            }
            // Strictly ascending and inside the map: render() looks every
            // tally's data center up in it.
            if (dc >= out.map_.num_data_centers() ||
                static_cast<int>(dc) <= prev_dc) {
                return Error(ErrorCode::BadField,
                             "service aggregates: dc tally " +
                                 std::to_string(dc) + " of stream '" + name +
                                 "' is out of order or beyond the map's " +
                                 std::to_string(out.map_.num_data_centers()) +
                                 " data centers");
            }
            t.dc = static_cast<int>(dc);
            prev_dc = t.dc;
            it->second.dc_traffic.restore(t);
        }
        if (!r.take(&it->second.unmapped_flows)) return truncated(r);
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "service aggregates: trailing bytes after payload");
    }
    return out;
}

}  // namespace ytcdn::service
