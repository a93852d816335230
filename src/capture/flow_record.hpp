#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "cdn/http.hpp"
#include "cdn/video.hpp"
#include "net/ip_address.hpp"
#include "sim/time.hpp"

namespace ytcdn::capture {

/// One line of a Tstat-style YouTube flow log: the per-flow statistics the
/// paper's datasets consist of ("the source and destination IP addresses,
/// the total number of bytes, the starting and ending time and both the
/// VideoID and the resolution of the video requested", Section III-B).
struct FlowRecord {
    net::IpAddress client_ip;
    net::IpAddress server_ip;
    sim::SimTime start = 0.0;
    sim::SimTime end = 0.0;
    /// Server-to-client payload bytes (what "flow size" means throughout
    /// the paper — the 1000-byte control/video threshold applies to this).
    std::uint64_t bytes = 0;
    cdn::VideoId video;
    cdn::Resolution resolution = cdn::Resolution::R360;

    [[nodiscard]] double duration() const noexcept { return end - start; }

    /// Serializes as one tab-separated log line.
    [[nodiscard]] std::string to_tsv() const;

    /// Parses a line produced by to_tsv(); nullopt on malformed input.
    [[nodiscard]] static std::optional<FlowRecord> from_tsv(std::string_view line);
};

std::ostream& operator<<(std::ostream& os, const FlowRecord& r);

/// What the sniffer sees on the wire for one TCP connection, before
/// classification: endpoints, timing, downstream volume and the first
/// client payload (the HTTP request) available for DPI.
///
/// The payload arrives in one of two forms. Background traffic (and any
/// caller holding raw bytes) sets `first_payload`, a borrowed view that
/// must stay valid for the duration of `Sniffer::observe`. The player sets
/// `request` instead: the GET's fields, which the sniffer renders with
/// `cdn::format_request_to` into a buffer of its own at DPI time and then
/// parses like any other payload, so the wire format is still exercised
/// end to end; only the place where the string is formatted moves. The
/// request's host is a view into the CDN's server table, which outlives the
/// run. A flow handed to DPI behind the event loop (a FlowBlock) must use
/// the fields form: the block copies no payload bytes.
struct ObservedFlow {
    net::IpAddress client_ip;
    net::IpAddress server_ip;
    sim::SimTime start = 0.0;
    sim::SimTime end = 0.0;
    std::uint64_t bytes_down = 0;
    std::string_view first_payload;
    /// The request's fields; when set, it takes the place of
    /// `first_payload`.
    std::optional<cdn::VideoRequestView> request;
};

}  // namespace ytcdn::capture
