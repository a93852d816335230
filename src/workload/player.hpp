#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "capture/sniffer.hpp"
#include "cdn/cdn.hpp"
#include "cdn/dns.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/tracer.hpp"
#include "workload/client.hpp"

namespace ytcdn::workload {

/// Why a session reached its terminal point — the `code` field of
/// session-end trace events, aligned with the FailureCauses buckets
/// (Served covers both clean ends and the degraded redirect-exhausted
/// serve, which additionally reports RedirectExhausted).
enum class SessionOutcome : std::uint16_t {
    Served = 0,
    DnsFailure = 1,
    RetriesExhausted = 2,
    Timeout = 3,
    Reset = 4,
    RedirectExhausted = 5,
};

/// Emulates the Flash video player driving one video session end to end:
/// DNS resolution, the HTTP request to the content server, following
/// application-layer 302 redirects, early abandonment, pause/resume and
/// server-initiated resolution changes.
///
/// Every TCP connection the player opens is reported to the vantage point's
/// sniffer as an ObservedFlow carrying the HTTP request's fields, which the
/// sniffer serializes and then parses, so the capture pipeline exercises
/// genuine DPI parsing. This is what creates
/// the paper's session structure: control flows (<1 kB) preceding video
/// flows, 72-81% single-flow sessions, and redirect chains toward
/// non-preferred data centers.
class Player {
public:
    struct Config {
        /// Redirect chain bound; the real player gives up after a few hops.
        int max_redirects = 4;
        /// Control-flow response size range (Fig. 4's sub-1000-byte mode).
        double control_bytes_lo = 350.0;
        double control_bytes_hi = 950.0;
        /// Client think time between receiving a 302 and re-requesting.
        double redirect_think_lo_s = 0.10;
        double redirect_think_hi_s = 0.45;
        /// P(server answers the first request with a control message —
        /// resolution change or in-DC bounce — before the video flow) —
        /// yields the paper's dominant preferred,preferred two-flow
        /// sessions (Fig. 10b).
        double p_resolution_probe = 0.18;
        /// P(viewer abandons early) and the watched-fraction range then.
        double p_abort = 0.45;
        double min_watch_frac = 0.05;
        double max_abort_watch_frac = 0.85;
        /// P(viewer pauses and resumes later, splitting the download) —
        /// merged into one session only at large gap thresholds (Fig. 5).
        double p_pause_resume = 0.055;
        double pause_gap_lo_s = 15.0;
        double pause_gap_hi_s = 280.0;
        /// Server-side per-flow rate cap, bps.
        double server_rate_bps = 8e6;
        /// When true, legacy (YouTube-EU / other-AS) servers deliver the
        /// full requested stream instead of degraded low-resolution legacy
        /// encodes. The paper's EU2 network still pulled 10.4% of its bytes
        /// from the YouTube-EU AS (Table II) — a legacy configuration the
        /// study deployment reproduces by enabling this for EU2 only.
        bool legacy_full_quality = false;
        /// DNS answer TTL honoured by the client's stub resolver. 0 (the
        /// default) resolves every session, as the short-TTL 2010 YouTube
        /// DNS effectively did; larger values let clients reuse a mapping,
        /// which coarsens DNS-level load balancing (see the dns-ttl
        /// ablation bench).
        double dns_ttl_s = 0.0;

        // --- fault tolerance -------------------------------------------------
        /// How long the player waits on an unanswered SYN before giving up
        /// on a dark server (the Flash player's connect timer).
        double connect_timeout_s = 0.9;
        /// Connection attempts beyond the first before the session dies.
        int max_connect_retries = 3;
        /// Exponential backoff between connection retries:
        /// min(cap, base * 2^attempt) plus deterministic uniform jitter
        /// drawn from the player's seeded stream.
        double retry_backoff_base_s = 0.4;
        double retry_backoff_cap_s = 5.0;
        double retry_jitter_s = 0.2;
        /// Re-asks after a SERVFAIL this many times before the session is
        /// abandoned as a DNS failure.
        int dns_retry_limit = 2;
        double dns_retry_delay_s = 1.0;
    };

    /// Terminal failure causes: every abandoned session increments exactly
    /// one bucket (the paper-era player had a single opaque
    /// `failed_sessions` counter; the fault work needs the cause).
    struct FailureCauses {
        /// Final connection attempt timed out with no live failover target.
        std::uint64_t timeout = 0;
        /// Final connection attempt was reset (draining server) with no
        /// live failover target.
        std::uint64_t reset = 0;
        /// Local resolver answered SERVFAIL through every DNS retry.
        std::uint64_t dns_failure = 0;
        /// Connection retry budget exhausted while targets still existed.
        std::uint64_t retries_exhausted = 0;
        /// Redirect chain gave up (the pre-existing failure mode: chain
        /// bound hit or no redirect target with the content).
        std::uint64_t redirect_exhausted = 0;

        [[nodiscard]] std::uint64_t total() const noexcept {
            return timeout + reset + dns_failure + retries_exhausted +
                   redirect_exhausted;
        }
    };

    struct Stats {
        std::uint64_t sessions = 0;
        std::uint64_t video_flows = 0;
        std::uint64_t control_flows = 0;
        std::uint64_t redirects_miss = 0;
        std::uint64_t redirects_overload = 0;
        std::uint64_t resolution_probes = 0;
        std::uint64_t pauses = 0;
        std::uint64_t dns_cache_hits = 0;
        /// Non-terminal fault events observed while sessions kept going.
        std::uint64_t connect_timeouts = 0;   // individual attempts timed out
        std::uint64_t connect_resets = 0;     // individual attempts refused
        std::uint64_t dns_servfails = 0;      // SERVFAIL answers seen
        std::uint64_t stale_dns_answers = 0;  // past-TTL replays accepted
        std::uint64_t failovers = 0;          // switched to next-ranked DC
        /// Terminal failure-cause breakdown (replaces `failed_sessions`).
        FailureCauses failures;
        /// retry_histogram[k] = sessions that needed k connection retries
        /// (k = 0 for the fault-free fast path). Grown on demand.
        std::vector<std::uint64_t> retry_histogram;
    };

    /// `trace` (optional) receives structured per-session events; the
    /// default disabled stream makes every emission a no-op branch, so an
    /// untraced player is byte-identical to the pre-tracer one.
    Player(sim::Simulator& simulator, cdn::Cdn& cdn, cdn::DnsSystem& dns,
           capture::Sniffer& sniffer, const Config& config, sim::Rng rng,
           sim::TraceStream trace = {});

    /// Starts a session at simulator time now(): DNS-resolves via the
    /// client's local resolver and begins the request/redirect sequence.
    void start_session(const Client& client, const cdn::Video& video,
                       cdn::Resolution resolution);

    [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
    [[nodiscard]] const Config& config() const noexcept { return config_; }

    /// Drops every cached DNS answer, or only those pointing at `dc`. The
    /// fault injector calls the targeted form when a data center goes dark,
    /// so clients re-resolve instead of reconnecting into the outage.
    void invalidate_dns_cache();
    void invalidate_dns_cache(cdn::DcId dc);
    /// Live (non-expired plus not-yet-evicted) cached answers, for tests.
    [[nodiscard]] std::size_t dns_cache_size() const noexcept {
        return dns_cache_.size();
    }

    /// A flow's base RTT in seconds, as every flow, redirect and failover
    /// delay uses it: RttModel::base_rtt_ms(client.site, the server's
    /// data-center site) / 1000, bit for bit. The path term is kept per
    /// data center (see path_ms_).
    [[nodiscard]] double flow_rtt_s(const Client& client, cdn::ServerId server);

private:
    struct Session;

    void start_resolved(const Session& s, cdn::DcId dc);
    void resolve_and_start(const Session& s, int dns_tries_left);
    void attempt(const Session& s, cdn::ServerId server, int redirects_left,
                 std::vector<cdn::DcId> visited);
    /// Reacts to a failed TCP connect: backoff + failover to the
    /// next-ranked live data center, or a terminal failure bucket.
    void handle_connect_failure(const Session& s, cdn::ServerId server,
                                cdn::ConnectOutcome outcome, int redirects_left,
                                std::vector<cdn::DcId> visited);
    void serve_video(const Session& s, cdn::ServerId server, double watch_frac,
                     bool allow_pause);
    void attempt_resume(const Session& s, cdn::ServerId server, double rest_frac);
    void emit_control_flow(const Session& s, cdn::ServerId server);
    /// The fields of the session's HTTP GET to `server`, handed to the
    /// sniffer, which renders the request at DPI time. The host is a view
    /// into the CDN's server table.
    [[nodiscard]] static cdn::VideoRequestView request_of(
        const Session& s, const cdn::ContentServer& server);
    /// Records the session's connection-retry count at its terminal point
    /// (served or failed), feeding the failure-analysis histogram, and
    /// emits the session-end trace event — every session-start pairs with
    /// exactly one of these (trace_dump validates the invariant).
    void note_session_end(const Session& s, SessionOutcome outcome);
    [[nodiscard]] double retry_backoff_s(int attempt);
    [[nodiscard]] double download_rate_bps(const Client& client,
                                           cdn::Resolution r) const noexcept;

    sim::Simulator* simulator_;
    cdn::Cdn* cdn_;
    cdn::DnsSystem* dns_;
    capture::Sniffer* sniffer_;
    Config config_;
    sim::Rng rng_;
    sim::TraceStream trace_;
    Stats stats_;
    /// Session ids for the trace (1-based, per player; the TraceStream's
    /// vantage-point index disambiguates across players).
    std::uint64_t next_session_id_ = 0;
    /// Per-client cached DNS answer and its expiry (only with dns_ttl_s > 0).
    std::unordered_map<ClientId, std::pair<cdn::DcId, sim::SimTime>> dns_cache_;
    /// RttModel::path_rtt_ms from `path_site_` to each data center, by
    /// DcId, filled on first use (kPathUnknown until then). Every client of
    /// a vantage point shares the PoP's site id; a client from another site
    /// starts the table over.
    static constexpr double kPathUnknown = -1.0;
    std::uint64_t path_site_ = 0;
    std::vector<double> path_ms_;
    /// Reusable 302 scratch, so a redirect allocates no string per event.
    std::string redirect_buf_;
};

}  // namespace ytcdn::workload
