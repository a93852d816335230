#include "study/trace_driver.hpp"

#include <memory>
#include <stdexcept>
#include <string>

#include "capture/sniffer.hpp"
#include "sim/fault_injector.hpp"
#include "util/intern.hpp"
#include "workload/request_generator.hpp"

namespace ytcdn::study {

namespace {

/// Binds a fault schedule's named targets (data-center cities, server
/// hostnames, resolver names) to the deployment's CDN/DNS health machines.
/// Unknown targets throw — a chaos experiment aimed at a typo'd city must
/// fail loudly, not run a clean baseline by accident.
void bind_fault_handlers(sim::FaultInjector& injector, StudyDeployment& dep,
                         std::vector<std::unique_ptr<workload::Player>>& players) {
    using sim::FaultAction;
    const auto dc_of = [&dep](const sim::FaultEvent& e) {
        const cdn::DcId dc = dep.dc_by_city(e.target);
        if (dc == cdn::kInvalidDc) {
            throw std::invalid_argument("fault schedule: unknown data center '" +
                                        e.target + "'");
        }
        return dc;
    };
    const auto server_of = [&dep](const sim::FaultEvent& e) {
        const cdn::ServerId sid = dep.cdn().server_by_hostname(e.target);
        if (sid == cdn::kInvalidServer) {
            throw std::invalid_argument("fault schedule: unknown server '" +
                                        e.target + "'");
        }
        return sid;
    };
    const auto resolver_of = [&dep](const sim::FaultEvent& e) {
        const cdn::LdnsId id = dep.dns().resolver_by_name(e.target);
        if (id == cdn::kInvalidLdns) {
            throw std::invalid_argument("fault schedule: unknown resolver '" +
                                        e.target + "'");
        }
        return id;
    };
    const auto set_dc = [&dep, &players, dc_of](const sim::FaultEvent& e,
                                                cdn::HealthState h) {
        const cdn::DcId dc = dc_of(e);
        dep.cdn().set_dc_health(dc, h);
        if (h == cdn::HealthState::Down) {
            // Clients must not keep resolving into the outage from their
            // stub caches; the authoritative side has stopped advertising
            // the site.
            for (auto& p : players) p->invalidate_dns_cache(dc);
        }
    };
    injector.on(FaultAction::DcDown, [set_dc](const sim::FaultEvent& e) {
        set_dc(e, cdn::HealthState::Down);
    });
    injector.on(FaultAction::DcDrain, [set_dc](const sim::FaultEvent& e) {
        set_dc(e, cdn::HealthState::Draining);
    });
    injector.on(FaultAction::DcUp, [set_dc](const sim::FaultEvent& e) {
        set_dc(e, cdn::HealthState::Up);
    });
    const auto set_server = [&dep, server_of](const sim::FaultEvent& e,
                                              cdn::HealthState h) {
        dep.cdn().set_server_health(server_of(e), h);
    };
    injector.on(FaultAction::ServerDown, [set_server](const sim::FaultEvent& e) {
        set_server(e, cdn::HealthState::Down);
    });
    injector.on(FaultAction::ServerDrain, [set_server](const sim::FaultEvent& e) {
        set_server(e, cdn::HealthState::Draining);
    });
    injector.on(FaultAction::ServerUp, [set_server](const sim::FaultEvent& e) {
        set_server(e, cdn::HealthState::Up);
    });
    injector.on(FaultAction::ResolverDown, [&dep, resolver_of](const sim::FaultEvent& e) {
        dep.dns().set_resolver_up(resolver_of(e), false);
    });
    injector.on(FaultAction::ResolverUp, [&dep, resolver_of](const sim::FaultEvent& e) {
        dep.dns().set_resolver_up(resolver_of(e), true);
    });
    injector.on(FaultAction::ResolverStale, [&dep, resolver_of](const sim::FaultEvent& e) {
        dep.dns().set_resolver_stale(resolver_of(e), true);
    });
    injector.on(FaultAction::ResolverFresh, [&dep, resolver_of](const sim::FaultEvent& e) {
        dep.dns().set_resolver_stale(resolver_of(e), false);
    });
}

}  // namespace

TraceDriver::TraceDriver(StudyDeployment& deployment,
                         const workload::Player::Config& player_config)
    : deployment_(&deployment), player_config_(player_config) {}

TraceOutputs TraceDriver::run(sim::SimTime horizon) {
    auto& dep = *deployment_;
    const std::size_t n = dep.num_vantage_points();
    if (!sinks_.empty() && sinks_.size() != n) {
        throw std::invalid_argument(
            "TraceDriver: flow sinks must match vantage-point count");
    }
    sim::Simulator simulator;
    sim::Rng rng = dep.root_rng().fork("trace-driver");

    std::vector<std::unique_ptr<capture::Sniffer>> sniffers;
    std::vector<std::unique_ptr<workload::Player>> players;
    std::vector<std::unique_ptr<workload::RequestGenerator>> generators;
    sniffers.reserve(n);
    players.reserve(n);
    generators.reserve(n);

    for (std::size_t i = 0; i < n; ++i) {
        auto& vp = dep.vantage(i);
        sniffers.push_back(std::make_unique<capture::Sniffer>(vp.name));
        if (!sinks_.empty()) sniffers.back()->set_sink(sinks_[i]);
        workload::Player::Config player_cfg = player_config_;
        // EU2's legacy configuration still streams full-quality video from
        // the YouTube-EU AS (the paper's Table II shows 10.4% of EU2 bytes
        // there, vs ~1% elsewhere).
        if (vp.name == "EU2") player_cfg.legacy_full_quality = true;
        workload::RequestGenerator::Config gen_cfg;
        gen_cfg.zipf_exponent = dep.config().zipf_exponent;
        gen_cfg.p_promoted = dep.config().p_promoted;
        // Table I's per-flow volumes differ sharply across the paper's
        // networks: ~8.1 MB/flow at US-Campus vs ~4.2-5.5 MB at the
        // European ones (2010 HD adoption lagged in Europe and the ISP
        // links were tighter). Model it as a lighter resolution mix and
        // earlier abandonment outside the US campus.
        if (vp.name != "US-Campus") {
            gen_cfg.resolution_weights = {0.25, 0.65, 0.08, 0.02, 0.0};
            player_cfg.p_abort = 0.60;
            player_cfg.max_abort_watch_frac = 0.70;
        }
        players.push_back(std::make_unique<workload::Player>(
            simulator, dep.cdn(), dep.dns(), *sniffers.back(), player_cfg,
            rng.fork("player-" + vp.name),
            sim::TraceStream(tracer_, static_cast<std::uint8_t>(i))));
        generators.push_back(std::make_unique<workload::RequestGenerator>(
            simulator, vp, *players.back(), dep.catalog(), gen_cfg,
            rng.fork("generator-" + vp.name)));
    }

    // The fault injector (if any faults are scheduled) shares the event
    // queue with the workload; with an empty schedule nothing is created
    // and the run is byte-identical to the pre-fault-injection baseline.
    std::unique_ptr<sim::FaultInjector> injector;
    if (!dep.config().fault_schedule.empty()) {
        injector = std::make_unique<sim::FaultInjector>(
            simulator, dep.config().fault_schedule);
        bind_fault_handlers(*injector, dep, players);
        // Faults are deployment-wide, not tied to any vantage point; they
        // stream under the reserved index 0xFF.
        injector->set_trace(sim::TraceStream(tracer_, 0xFF));
        injector->arm();
    }

    for (auto& g : generators) g->run(horizon);
    // Let in-flight sessions (redirect chains, pause resumes) drain past the
    // capture horizon, like a real capture that sees flows end after the
    // last request started.
    simulator.run_until(horizon + 2.0 * sim::kHour);

    TraceOutputs out;
    out.events_processed = simulator.events_processed();
    out.faults_injected = injector ? injector->injected() : 0;
    out.datasets.reserve(n);
    // Join point for the per-VP interner shards: fold them in VP order into
    // the canonical hostname table, so ids are first-seen-per-shard stable
    // (util::Interner merge protocol) and independent of capture details.
    util::Interner hostnames;
    for (std::size_t i = 0; i < n; ++i) {
        out.flows_observed.push_back(sniffers[i]->flows_observed());
        out.flows_ignored.push_back(sniffers[i]->flows_ignored());
        (void)hostnames.merge_map(sniffers[i]->hosts());
        capture::Dataset ds;
        ds.name = dep.vantage(i).name;
        ds.records = sniffers[i]->take_records();
        ds.sort_by_time();
        out.datasets.push_back(std::move(ds));
        out.player_stats.push_back(players[i]->stats());
        out.requests_generated.push_back(generators[i]->requests_generated());
    }
    out.unique_hosts = hostnames.size();
    return out;
}

}  // namespace ytcdn::study
