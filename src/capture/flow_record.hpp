#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

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
/// The payload is a borrowed view: it must stay valid for the duration of
/// `Sniffer::observe`, which never retains it: it either classifies the
/// flow at once or copies it, payload bytes included, into a FlowBlock
/// that DPI drains behind the event loop. Emitters reuse a per-source
/// buffer (or a string literal), and blocks are reused, so the
/// simulate→capture hand-off allocates nothing per flow.
struct ObservedFlow {
    net::IpAddress client_ip;
    net::IpAddress server_ip;
    sim::SimTime start = 0.0;
    sim::SimTime end = 0.0;
    std::uint64_t bytes_down = 0;
    std::string_view first_payload;
};

}  // namespace ytcdn::capture
