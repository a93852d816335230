#include "workload/player.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "cdn/http.hpp"
#include "util/metrics.hpp"

namespace ytcdn::workload {

namespace {

using sim::TraceEventType;

/// Registry handles, resolved once. Every one counts logical work the
/// session structure dictates, never scheduling detail, so the merged
/// snapshot is identical at any thread count (DESIGN.md §11).
struct PlayerMetrics {
    util::metrics::Counter sessions =
        util::metrics::counter("workload.player.sessions");
    util::metrics::Counter video_flows =
        util::metrics::counter("workload.player.video_flows");
    util::metrics::Counter control_flows =
        util::metrics::counter("workload.player.control_flows");
    util::metrics::Counter redirects =
        util::metrics::counter("workload.player.redirects");
    util::metrics::Counter dns_cache_hits =
        util::metrics::counter("workload.player.dns_cache_hits");
    util::metrics::Counter failovers =
        util::metrics::counter("workload.player.failovers");
    util::metrics::Counter failures =
        util::metrics::counter("workload.player.failures");
    util::metrics::Histogram retries_per_session = util::metrics::histogram(
        "workload.player.retries_per_session", {0.0, 1.0, 2.0, 4.0});
};

PlayerMetrics& player_metrics() {
    static PlayerMetrics metrics;
    return metrics;
}

}  // namespace

/// Immutable per-session context, copied into scheduled events.
struct Player::Session {
    Client client;
    cdn::Video video;
    cdn::Resolution resolution;
    /// Connection retries spent so far (bounded by max_connect_retries).
    int retries = 0;
    /// 1-based trace session id; unique per player.
    std::uint64_t id = 0;
};

Player::Player(sim::Simulator& simulator, cdn::Cdn& cdn, cdn::DnsSystem& dns,
               capture::Sniffer& sniffer, const Config& config, sim::Rng rng,
               sim::TraceStream trace)
    : simulator_(&simulator),
      cdn_(&cdn),
      dns_(&dns),
      sniffer_(&sniffer),
      config_(config),
      rng_(rng),
      trace_(trace) {}

double Player::flow_rtt_s(const Client& client, cdn::ServerId server) {
    const cdn::DcId dc = cdn_->server(server).dc();
    const net::NetSite& dc_site = cdn_->dc(dc).site;
    const net::RttModel& model = cdn_->rtt_model();
    if (client.site.id == dc_site.id) return model.base_rtt_ms(client.site, dc_site) / 1000.0;
    // A vantage point's clients share the PoP's site and differ only in
    // their access link, so the path term is kept per data center.
    if (client.site.id != path_site_) {
        path_ms_.clear();
        path_site_ = client.site.id;
    }
    if (path_ms_.empty()) path_ms_.resize(cdn_->num_data_centers(), kPathUnknown);
    double& path = path_ms_[static_cast<std::size_t>(dc)];
    if (path == kPathUnknown) path = model.path_rtt_ms(client.site, dc_site);
    return model.with_access_ms(path, client.site, dc_site) / 1000.0;
}

double Player::download_rate_bps(const Client& client, cdn::Resolution r) const noexcept {
    // The server paces slightly above the nominal bitrate after the initial
    // burst; the client link and server cap bound it.
    const double paced = std::max(2.0 * cdn::bitrate_bps(r), 600e3);
    return std::min({client.downstream_bps, config_.server_rate_bps, paced});
}

cdn::VideoRequestView Player::request_of(const Session& s,
                                         const cdn::ContentServer& server) {
    return {server.hostname(), s.video.id, cdn::itag_of(s.resolution)};
}

void Player::emit_control_flow(const Session& s, cdn::ServerId server) {
    const auto& srv = cdn_->server(server);
    const double rtt = flow_rtt_s(s.client, server);
    capture::ObservedFlow flow;
    flow.client_ip = s.client.ip;
    flow.server_ip = srv.ip();
    flow.start = simulator_->now();
    flow.end = flow.start + 2.0 * rtt + rng_.uniform(0.01, 0.05);
    flow.bytes_down = static_cast<std::uint64_t>(
        rng_.uniform(config_.control_bytes_lo, config_.control_bytes_hi));
    flow.request = request_of(s, srv);
    sniffer_->observe(flow);
    ++stats_.control_flows;
    player_metrics().control_flows.inc();
}

void Player::note_session_end(const Session& s, SessionOutcome outcome) {
    const auto k = static_cast<std::size_t>(std::max(0, s.retries));
    if (stats_.retry_histogram.size() <= k) stats_.retry_histogram.resize(k + 1, 0);
    ++stats_.retry_histogram[k];
    player_metrics().retries_per_session.observe(static_cast<double>(k));
    if (outcome != SessionOutcome::Served) player_metrics().failures.inc();
    trace_.emit(simulator_->now(), TraceEventType::SessionEnd, s.id,
                static_cast<std::uint16_t>(outcome));
}

double Player::retry_backoff_s(int attempt) {
    const double backoff = std::min(config_.retry_backoff_cap_s,
                                    config_.retry_backoff_base_s *
                                        std::pow(2.0, static_cast<double>(attempt)));
    return backoff + rng_.uniform(0.0, std::max(1e-9, config_.retry_jitter_s));
}

void Player::invalidate_dns_cache() { dns_cache_.clear(); }

void Player::invalidate_dns_cache(cdn::DcId dc) {
    std::erase_if(dns_cache_,
                  [dc](const auto& entry) { return entry.second.first == dc; });
}

void Player::start_session(const Client& client, const cdn::Video& video,
                           cdn::Resolution resolution) {
    ++stats_.sessions;
    player_metrics().sessions.inc();
    const Session s{client, video, resolution, 0, ++next_session_id_};
    trace_.emit(simulator_->now(), TraceEventType::SessionStart, s.id,
                static_cast<std::uint16_t>(cdn::itag_of(resolution)),
                static_cast<std::int64_t>(video.id.value()), client.ldns);
    resolve_and_start(s, config_.dns_retry_limit);
}

void Player::resolve_and_start(const Session& s, int dns_tries_left) {
    if (config_.dns_ttl_s > 0.0) {
        const auto it = dns_cache_.find(s.client.id);
        if (it != dns_cache_.end()) {
            if (it->second.second > simulator_->now()) {
                ++stats_.dns_cache_hits;
                player_metrics().dns_cache_hits.inc();
                trace_.emit(simulator_->now(), TraceEventType::DnsCacheHit, s.id,
                            0, it->second.first);
                start_resolved(s, it->second.first);
                return;
            }
            // Expired: evict instead of leaking entries across a long run.
            dns_cache_.erase(it);
        }
    }
    trace_.emit(simulator_->now(), TraceEventType::DnsQuery, s.id, 0,
                s.client.ldns);
    const cdn::DnsAnswer answer = dns_->query(s.client.ldns, simulator_->now(), rng_);
    if (answer.status == cdn::DnsStatus::ServFail) {
        ++stats_.dns_servfails;
        trace_.emit(simulator_->now(), TraceEventType::DnsServFail, s.id, 0,
                    dns_tries_left);
        if (dns_tries_left <= 0) {
            ++stats_.failures.dns_failure;
            note_session_end(s, SessionOutcome::DnsFailure);
            return;
        }
        const double delay = config_.dns_retry_delay_s +
                             rng_.uniform(0.0, std::max(1e-9, config_.retry_jitter_s));
        simulator_->schedule_in(delay, [this, s, dns_tries_left] {
            resolve_and_start(s, dns_tries_left - 1);
        });
        return;
    }
    if (answer.stale) ++stats_.stale_dns_answers;
    trace_.emit(simulator_->now(), TraceEventType::DnsAnswer, s.id,
                answer.stale ? 1 : 0, answer.dc);
    if (config_.dns_ttl_s > 0.0) {
        dns_cache_[s.client.id] = {answer.dc, simulator_->now() + config_.dns_ttl_s};
    }
    start_resolved(s, answer.dc);
}

void Player::start_resolved(const Session& s, cdn::DcId dc) {
    const auto& dc_ref = cdn_->dc(dc);

    if (trace_.enabled()) {
        // DC selection with its candidate ranking: where the DNS-chosen
        // data center sits among the client's RTT-ordered candidates.
        // Guarded — the first query per site costs a sort, repeats hit the
        // Cdn's rank cache — and RNG-free either way.
        const std::vector<cdn::DcId>& ranked = cdn_->rank_by_rtt_cached(s.client.site);
        std::uint16_t rank = 0xFFFF;
        for (std::size_t i = 0; i < ranked.size(); ++i) {
            if (ranked[i] == dc) {
                rank = static_cast<std::uint16_t>(i);
                break;
            }
        }
        trace_.emit(simulator_->now(), TraceEventType::DcSelected, s.id, rank, dc,
                    static_cast<std::int64_t>(ranked.size()));
    }

    if (!cdn::in_analysis_scope(dc_ref.infra)) {
        // Legacy YouTube-EU / other-AS infrastructure: spread over its large
        // IP pool, always serves. Normally only degraded low-resolution
        // legacy encodes; networks with a legacy full-quality configuration
        // (EU2) stream the real thing.
        Session legacy = s;
        double watch_frac = rng_.uniform(0.2, 0.8);
        if (config_.legacy_full_quality) {
            watch_frac = rng_.bernoulli(config_.p_abort)
                             ? rng_.uniform(config_.min_watch_frac,
                                            config_.max_abort_watch_frac)
                             : 1.0;
        } else {
            legacy.resolution = cdn::Resolution::R240;
        }
        const auto& pool = dc_ref.servers;
        const cdn::ServerId server = pool[rng_.uniform_index(pool.size())];
        if (const auto conn = cdn_->connect_outcome(server);
            conn != cdn::ConnectOutcome::Ok) {
            handle_connect_failure(legacy, server, conn, config_.max_redirects, {});
            return;
        }
        note_session_end(legacy, SessionOutcome::Served);
        serve_video(legacy, server, watch_frac, /*allow_pause=*/false);
        return;
    }

    cdn::ServerId server = cdn_->pick_server(dc, s.video.id);
    if (const auto conn = cdn_->connect_outcome(server);
        conn != cdn::ConnectOutcome::Ok) {
        handle_connect_failure(s, server, conn, config_.max_redirects, {});
        return;
    }

    if (rng_.bernoulli(config_.p_resolution_probe)) {
        // The server answers with a "change resolution" control message; the
        // player re-requests at a lower resolution from the same server.
        ++stats_.resolution_probes;
        emit_control_flow(s, server);
        Session probe = s;
        probe.resolution = s.resolution == cdn::Resolution::R240
                               ? cdn::Resolution::R240
                               : cdn::Resolution::R360;
        const double delay =
            rng_.uniform(config_.redirect_think_lo_s, config_.redirect_think_hi_s);
        simulator_->schedule_in(delay, [this, probe, server] {
            attempt(probe, server, config_.max_redirects, {});
        });
        return;
    }

    attempt(s, server, config_.max_redirects, {});
}

void Player::attempt(const Session& s, cdn::ServerId server, int redirects_left,
                     std::vector<cdn::DcId> visited) {
    // A redirect target (or the session's first server) may have gone dark
    // between scheduling and firing; the TCP connect observes it first.
    if (const auto conn = cdn_->connect_outcome(server);
        conn != cdn::ConnectOutcome::Ok) {
        handle_connect_failure(s, server, conn, redirects_left, std::move(visited));
        return;
    }

    const cdn::ServeOutcome outcome = cdn_->classify_request(server, s.video);

    if (outcome == cdn::ServeOutcome::Served || redirects_left <= 0) {
        if (outcome != cdn::ServeOutcome::Served) ++stats_.failures.redirect_exhausted;
        note_session_end(s, outcome == cdn::ServeOutcome::Served
                                ? SessionOutcome::Served
                                : SessionOutcome::RedirectExhausted);
        const double watch_frac =
            rng_.bernoulli(config_.p_abort)
                ? rng_.uniform(config_.min_watch_frac, config_.max_abort_watch_frac)
                : 1.0;
        serve_video(s, server, watch_frac, /*allow_pause=*/true);
        return;
    }

    // The server cannot serve: it answers with a 302 (a control flow) and
    // the player retries against the redirect target.
    const cdn::DcId here = cdn_->server(server).dc();
    if (outcome == cdn::ServeOutcome::RedirectMiss) {
        ++stats_.redirects_miss;
        // The miss also triggers a back-office pull, so only this first
        // access leaves the data center (Section VII-C).
        cdn_->pull_content(here, s.video.id);
    } else {
        ++stats_.redirects_overload;
    }
    player_metrics().redirects.inc();
    cdn_->server(server).note_redirect();
    emit_control_flow(s, server);

    visited.push_back(here);
    const cdn::ServerId target = cdn_->redirect_target(s.client.site, s.video, visited);
    if (target == cdn::kInvalidServer) {
        ++stats_.failures.redirect_exhausted;
        note_session_end(s, SessionOutcome::RedirectExhausted);
        return;
    }
    // Serialize the actual 302 and chase its Location header, so the wire
    // format is exercised end to end (the DPI side renders and parses the
    // request; the player side parses the redirect).
    cdn::format_redirect_to(redirect_buf_, request_of(s, cdn_->server(server)),
                            cdn_->server(target).hostname());
    const auto location = cdn::parse_redirect_host_view(redirect_buf_);
    const cdn::ServerId next =
        location ? cdn_->server_by_hostname(*location) : cdn::kInvalidServer;
    if (next == cdn::kInvalidServer) {
        ++stats_.failures.redirect_exhausted;
        note_session_end(s, SessionOutcome::RedirectExhausted);
        return;
    }
    const double delay = 2.0 * flow_rtt_s(s.client, server) +
                         rng_.uniform(config_.redirect_think_lo_s,
                                      config_.redirect_think_hi_s);
    trace_.emit(simulator_->now(), TraceEventType::Redirect, s.id,
                outcome == cdn::ServeOutcome::RedirectMiss ? 1 : 2, here,
                cdn_->server(next).dc(), delay);
    simulator_->schedule_in(delay, [this, s, next, redirects_left,
                                    visited = std::move(visited)]() mutable {
        attempt(s, next, redirects_left - 1, std::move(visited));
    });
}

void Player::handle_connect_failure(const Session& s, cdn::ServerId server,
                                    cdn::ConnectOutcome outcome, int redirects_left,
                                    std::vector<cdn::DcId> visited) {
    const bool timed_out = outcome == cdn::ConnectOutcome::Timeout;
    if (timed_out) {
        ++stats_.connect_timeouts;
    } else {
        ++stats_.connect_resets;
    }
    trace_.emit(simulator_->now(), TraceEventType::ConnectFail, s.id,
                timed_out ? 1 : 2, server);
    const cdn::DcId here = cdn_->server(server).dc();
    // The failed mapping is useless now — drop it so the next session
    // re-resolves instead of reconnecting into the outage.
    if (config_.dns_ttl_s > 0.0) {
        const auto it = dns_cache_.find(s.client.id);
        if (it != dns_cache_.end() && it->second.first == here) dns_cache_.erase(it);
    }

    if (s.retries >= config_.max_connect_retries) {
        ++stats_.failures.retries_exhausted;
        note_session_end(s, SessionOutcome::RetriesExhausted);
        return;
    }
    visited.push_back(here);
    // Failover: the next-ranked live data center that can actually serve
    // (rank_by_rtt inside redirect_target skips dark capacity).
    const cdn::ServerId target =
        cdn_->redirect_target(s.client.site, s.video, visited);
    if (target == cdn::kInvalidServer) {
        if (timed_out) {
            ++stats_.failures.timeout;
        } else {
            ++stats_.failures.reset;
        }
        note_session_end(s, timed_out ? SessionOutcome::Timeout
                                      : SessionOutcome::Reset);
        return;
    }
    ++stats_.failovers;
    player_metrics().failovers.inc();
    Session next = s;
    ++next.retries;
    // A timeout burns the full connect timer; a reset is observed after one
    // round trip. Either way the player backs off before the next attempt.
    const double observed =
        timed_out ? config_.connect_timeout_s : 2.0 * flow_rtt_s(s.client, server);
    const double delay = observed + retry_backoff_s(s.retries);
    trace_.emit(simulator_->now(), TraceEventType::Retry, s.id,
                static_cast<std::uint16_t>(next.retries), target, 0, delay);
    simulator_->schedule_in(delay, [this, next, target, redirects_left,
                                    visited = std::move(visited)]() mutable {
        attempt(next, target, redirects_left, std::move(visited));
    });
}

void Player::serve_video(const Session& s, cdn::ServerId server, double watch_frac,
                         bool allow_pause) {
    const bool paused = allow_pause && watch_frac > 0.3 &&
                        rng_.bernoulli(config_.p_pause_resume);
    // When pausing, the first connection carries a prefix of the download
    // and the remainder arrives on a fresh connection after a viewer gap.
    const double first_frac = paused ? rng_.uniform(0.2, 0.7) * watch_frac : watch_frac;

    const auto emit_video = [this, &s](cdn::ServerId srv_id, double frac,
                                       sim::SimTime start) -> sim::SimTime {
        const auto& srv = cdn_->server(srv_id);
        const auto bytes = static_cast<std::uint64_t>(
            std::max(1.0, frac * static_cast<double>(
                                     cdn::video_bytes(s.video, s.resolution))));
        const double rate = download_rate_bps(s.client, s.resolution);
        const double duration =
            static_cast<double>(bytes) * 8.0 / rate + 2.0 * flow_rtt_s(s.client, srv_id);
        capture::ObservedFlow flow;
        flow.client_ip = s.client.ip;
        flow.server_ip = srv.ip();
        flow.start = start;
        flow.end = start + duration;
        flow.bytes_down = bytes;
        flow.request = request_of(s, srv);
        sniffer_->observe(flow);
        ++stats_.video_flows;
        player_metrics().video_flows.inc();

        cdn_->begin_flow(srv_id);
        simulator_->schedule_at(flow.end, [this, srv_id] { cdn_->end_flow(srv_id); });
        return flow.end;
    };

    const sim::SimTime first_end = emit_video(server, first_frac, simulator_->now());

    if (paused) {
        ++stats_.pauses;
        const double gap = rng_.uniform(config_.pause_gap_lo_s, config_.pause_gap_hi_s);
        trace_.emit(simulator_->now(), TraceEventType::Pause, s.id, 0, server, 0,
                    gap);
        const double rest = watch_frac - first_frac;
        Session resume = s;
        simulator_->schedule_at(first_end + gap, [this, resume, server, rest] {
            // The player re-uses the cached hostname; if the server is now
            // overloaded or the content was evicted the normal redirect
            // machinery kicks in.
            attempt_resume(resume, server, rest);
        });
    }
}

void Player::attempt_resume(const Session& s, cdn::ServerId server, double rest_frac) {
    trace_.emit(simulator_->now(), TraceEventType::Resume, s.id, 0, server, 0,
                rest_frac);
    // The cached server may have gone dark during the pause.
    if (const auto conn = cdn_->connect_outcome(server);
        conn != cdn::ConnectOutcome::Ok) {
        const bool timed_out = conn == cdn::ConnectOutcome::Timeout;
        if (timed_out) {
            ++stats_.connect_timeouts;
        } else {
            ++stats_.connect_resets;
        }
        trace_.emit(simulator_->now(), TraceEventType::ConnectFail, s.id,
                    timed_out ? 1 : 2, server);
        const std::vector<cdn::DcId> visited{cdn_->server(server).dc()};
        const cdn::ServerId target =
            cdn_->redirect_target(s.client.site, s.video, visited);
        if (target == cdn::kInvalidServer) {
            // The session already served its first part; the lost tail is
            // still a terminal failure for the resume.
            if (timed_out) {
                ++stats_.failures.timeout;
            } else {
                ++stats_.failures.reset;
            }
            return;
        }
        ++stats_.failovers;
        player_metrics().failovers.inc();
        const double observed = timed_out ? config_.connect_timeout_s
                                          : 2.0 * flow_rtt_s(s.client, server);
        const double delay = observed + retry_backoff_s(0);
        trace_.emit(simulator_->now(), TraceEventType::Failover, s.id, 0, target,
                    0, delay);
        Session resumed = s;
        const double rest = std::max(0.02, rest_frac);
        simulator_->schedule_in(delay, [this, resumed, target, rest] {
            serve_video(resumed, target, rest, /*allow_pause=*/false);
        });
        return;
    }
    const cdn::ServeOutcome outcome = cdn_->classify_request(server, s.video);
    cdn::ServerId target = server;
    if (outcome != cdn::ServeOutcome::Served) {
        cdn_->server(server).note_redirect();
        emit_control_flow(s, server);
        const cdn::DcId here = cdn_->server(server).dc();
        const std::vector<cdn::DcId> visited{here};
        target = cdn_->redirect_target(s.client.site, s.video, visited);
        if (target == cdn::kInvalidServer) {
            ++stats_.failures.redirect_exhausted;
            return;
        }
    }
    Session resumed = s;
    // Tail of the download, no further pause recursion.
    serve_video(resumed, target, std::max(0.02, rest_frac), /*allow_pause=*/false);
}

}  // namespace ytcdn::workload
