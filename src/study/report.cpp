#include "study/report.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/series.hpp"
#include "cdn/video.hpp"
#include "geo/city.hpp"
#include "geo/continent.hpp"
#include "study/dc_map_builder.hpp"

namespace ytcdn::study {

namespace {

/// Paper's Table I rows for side-by-side comparison.
struct PaperRow {
    const char* flows;
    const char* volume_gb;
    const char* servers;
    const char* clients;
};
constexpr PaperRow kPaperTable1[] = {
    {"874649", "7061.27", "1985", "20443"}, {"134789", "580.25", "1102", "1113"},
    {"877443", "3709.98", "1977", "8348"},  {"91955", "463.1", "1081", "997"},
    {"513403", "2834.99", "1637", "6552"},
};

}  // namespace

analysis::VantageScope vantage_scope(const StudyRun& run, std::size_t i) {
    const auto& vp = run.deployment->vantage(i);
    analysis::VantageScope scope;
    scope.name = run.traces.datasets[i].name;
    scope.map = &run.maps[i];
    scope.preferred = run.preferred[i];
    scope.whois = &run.deployment->whois();
    scope.local_as = run.deployment->local_as(i);
    scope.subnets.reserve(vp.subnets.size());
    for (const auto& s : vp.subnets) scope.subnets.push_back({s.name, s.prefix});
    return scope;
}

StudyFolds fold_study(const StudyRun& run, util::ThreadPool& pool) {
    const auto& datasets = run.traces.datasets;
    const std::size_t n = datasets.size();
    if (!run.logs.empty() && run.logs.size() != n) {
        throw std::invalid_argument("fold_study: need one log per dataset");
    }
    // The passes index the maps and preferred data centers by dataset; a run
    // without one of each per dataset is a caller error, not a layout to
    // fold around.
    if (run.maps.size() != n || run.preferred.size() != n) {
        throw std::invalid_argument(
            "fold_study: need one map and one preferred data center per dataset "
            "(build the run with run_study or assemble_study_run)");
    }
    std::size_t us = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (datasets[i].name == "US-Campus") us = i;
    }
    StudyFolds out;
    if (us < n) {
        for (const double gap : {5.0, 10.0, 60.0, 300.0}) {
            out.gap_sweep.emplace_back(gap, analysis::FlowsPerSession{});
        }
    }
    for (std::size_t i = 0; i < n; ++i) out.vantage.emplace_back(vantage_scope(run, i));
    // Each task writes only its own slot.
    pool.run_indexed(n + out.gap_sweep.size(), [&](std::size_t i) {
        if (i < n) {
            out.vantage[i] = analysis::fold_report(run.records(i), out.vantage[i].scope);
            return;
        }
        auto& [gap, counts] = out.gap_sweep[i - n];
        counts = analysis::count_sessions(run.records(us), gap);
    });
    return out;
}

analysis::AsciiTable make_table1(const std::vector<analysis::ReportFolds>& folds,
                                 std::vector<Measurement>* measured) {
    analysis::AsciiTable t({"Dataset", "Flows", "Volume[GB]", "#Servers", "#Clients",
                            "paper:Flows", "paper:GB", "paper:Srv", "paper:Cli"});
    for (std::size_t i = 0; i < folds.size(); ++i) {
        const auto& name = folds[i].scope.name;
        const auto& s = folds[i].summary;
        if (measured != nullptr) {
            const std::string id = "T1." + name;
            measured->push_back({id + ".flows", static_cast<double>(s.flows)});
            measured->push_back({id + ".volume_gb", s.volume_gb()});
            measured->push_back({id + ".servers", static_cast<double>(s.servers.size())});
            measured->push_back({id + ".clients", static_cast<double>(s.clients.size())});
        }
        t.add_row({name, std::to_string(s.flows), analysis::fmt(s.volume_gb(), 2),
                   std::to_string(s.servers.size()), std::to_string(s.clients.size()),
                   kPaperTable1[i].flows, kPaperTable1[i].volume_gb,
                   kPaperTable1[i].servers, kPaperTable1[i].clients});
    }
    return t;
}

analysis::AsciiTable make_table2(const std::vector<analysis::ReportFolds>& folds,
                                 std::vector<Measurement>* measured) {
    analysis::AsciiTable t({"Dataset", "Google srv%", "Google byt%", "YT-EU srv%",
                            "YT-EU byt%", "SameAS srv%", "SameAS byt%", "Other srv%",
                            "Other byt%"});
    for (const auto& fold : folds) {
        const auto row = fold.as.row(fold.scope.name);
        if (measured != nullptr) {
            const std::string id = "T2." + row.dataset;
            measured->push_back({id + ".google_bytes", row.google_bytes});
            measured->push_back({id + ".yteu_servers", row.youtube_eu_servers});
            measured->push_back({id + ".yteu_bytes", row.youtube_eu_bytes});
            measured->push_back({id + ".same_as_bytes", row.same_as_bytes});
        }
        t.add_row({row.dataset, analysis::fmt_pct(row.google_servers, 1),
                   analysis::fmt_pct(row.google_bytes, 1),
                   analysis::fmt_pct(row.youtube_eu_servers, 1),
                   analysis::fmt_pct(row.youtube_eu_bytes, 1),
                   analysis::fmt_pct(row.same_as_servers, 1),
                   analysis::fmt_pct(row.same_as_bytes, 1),
                   analysis::fmt_pct(row.other_servers, 1),
                   analysis::fmt_pct(row.other_bytes, 1)});
    }
    return t;
}

analysis::AsciiTable make_table3(const StudyRun& run,
                                 const std::vector<analysis::ContinentCounts>& counts) {
    analysis::AsciiTable t({"Dataset", "N. America", "Europe", "Others", "unlocated"});
    for (std::size_t i = 0; i < counts.size() && i < run.traces.datasets.size(); ++i) {
        t.add_row({run.traces.datasets[i].name, std::to_string(counts[i].north_america),
                   std::to_string(counts[i].europe), std::to_string(counts[i].others),
                   std::to_string(counts[i].unlocated)});
    }
    return t;
}

analysis::VantageFailureCounts failure_counts_of(std::string vantage,
                                                 const workload::Player::Stats& stats) {
    analysis::VantageFailureCounts c;
    c.vantage = std::move(vantage);
    c.sessions = stats.sessions;
    c.connect_timeouts = stats.connect_timeouts;
    c.connect_resets = stats.connect_resets;
    c.dns_servfails = stats.dns_servfails;
    c.stale_dns_answers = stats.stale_dns_answers;
    c.failovers = stats.failovers;
    c.failed_timeout = stats.failures.timeout;
    c.failed_reset = stats.failures.reset;
    c.failed_dns = stats.failures.dns_failure;
    c.failed_retries_exhausted = stats.failures.retries_exhausted;
    c.failed_redirect_exhausted = stats.failures.redirect_exhausted;
    c.retry_histogram = stats.retry_histogram;
    return c;
}

std::vector<analysis::VantageFailureCounts> failure_counts(const StudyRun& run) {
    std::vector<analysis::VantageFailureCounts> out;
    out.reserve(run.traces.datasets.size());
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        out.push_back(failure_counts_of(run.traces.datasets[i].name,
                                        run.traces.player_stats[i]));
    }
    return out;
}

analysis::AsciiTable make_failure_table(const StudyRun& run) {
    return analysis::failure_breakdown_table(failure_counts(run));
}

analysis::AsciiTable make_retry_table(const StudyRun& run) {
    return analysis::retry_histogram_table(failure_counts(run));
}

const std::string* FullReport::content(std::string_view name) const {
    for (const auto& a : artifacts) {
        if (a.name == name) return &a.content;
    }
    return nullptr;
}

std::string FullReport::render() const {
    std::string out;
    for (const auto& a : artifacts) {
        out += "== " + a.name + " ==\n";
        out += a.content;
        if (!a.content.empty() && a.content.back() != '\n') out += '\n';
    }
    return out;
}

namespace {

std::string render_series(const std::vector<analysis::Series>& series) {
    std::ostringstream os;
    analysis::write_series(os, series);
    return os.str();
}

analysis::Series flows_cdf_series(std::string name, const std::vector<double>& cdf) {
    analysis::Series s{std::move(name), {}};
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        s.points.emplace_back(static_cast<double>(i + 1), cdf[i]);
    }
    return s;
}

/// Table III's CBG phase: calibrate the landmarks, then locate every data
/// center behind the vantage points' in-scope /24s once. Both steps fan out
/// over `pool`.
DcLocations locate_table3_dcs(const StudyRun& run,
                              const std::vector<std::vector<net::IpAddress>>& scopes,
                              const ReportOptions& options, util::ThreadPool& pool) {
    geoloc::CbgLocator locator(
        run.deployment->rtt(),
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(run.config.seed ^ 0x9B),
                                         options.landmarks),
        options.cbg, run.config.seed ^ 0xCB6);
    locator.calibrate(pool);
    return locate_scope_dcs(*run.deployment, scopes, locator, pool);
}

/// The share of an hourly series' total that falls on its busiest calendar
/// day (0 for an empty series).
double peak_day_share(const analysis::Series& hourly) {
    std::map<long, double> per_day;
    double total = 0.0;
    for (const auto& [hour, v] : hourly.points) {
        per_day[static_cast<long>(std::floor(hour / 24.0))] += v;
        total += v;
    }
    double peak = 0.0;
    for (const auto& [day, v] : per_day) peak = std::max(peak, v);
    return total > 0.0 ? peak / total : 0.0;
}

std::string render_table3_artifact(const StudyRun& run,
                                   const std::vector<std::vector<net::IpAddress>>& scopes,
                                   const DcLocations& located,
                                   std::vector<Measurement>& measured) {
    std::vector<analysis::ContinentCounts> counts;
    counts.reserve(scopes.size());
    std::set<std::string> cities;
    for (std::size_t i = 0; i < scopes.size(); ++i) {
        const auto& vp = run.deployment->vantage(i);
        const auto mapping = cbg_dc_map(*run.deployment, scopes[i], located, vp);
        const auto& c =
            counts.emplace_back(analysis::servers_per_continent(mapping.located));
        for (const auto& cluster : mapping.clusters) cities.insert(cluster.city_name);
        std::size_t at_home = c.others;
        switch (geo::bucket_of(vp.city->continent)) {
            case geo::ContinentBucket::NorthAmerica: at_home = c.north_america; break;
            case geo::ContinentBucket::Europe: at_home = c.europe; break;
            case geo::ContinentBucket::Others: break;
        }
        if (c.located_total() > 0) {
            measured.push_back({"T3." + vp.name + ".home_share",
                                static_cast<double>(at_home) /
                                    static_cast<double>(c.located_total())});
        }
    }
    measured.push_back({"T3.dc_cities", static_cast<double>(cities.size())});
    return make_table3(run, counts).render();
}

std::string render_fig10(const StudyFolds& folds, std::vector<Measurement>& measured) {
    analysis::AsciiTable t({"Dataset", "1-flow", "1:pref", "1:nonpref", "2-flow",
                            "2:pp", "2:pn", "2:np", "2:nn", ">2-flow", ">2:allpref",
                            ">2:pref-then-other", ">2:nonpref-first"});
    for (const auto& fold : folds.vantage) {
        const auto p = fold.sessions.patterns();
        const auto m = fold.sessions.multi_flow();
        const std::string id = "F10." + fold.scope.name;
        measured.push_back({id + ".single_nonpref", p.single_non_preferred});
        const double away =
            p.two_pref_nonpref + p.two_nonpref_pref + p.two_nonpref_nonpref;
        if (away > 0.0) {
            measured.push_back({id + ".2flow_pn", p.two_pref_nonpref / away});
            measured.push_back({id + ".2flow_nn", p.two_nonpref_nonpref / away});
        }
        t.add_row({fold.scope.name, analysis::fmt_pct(p.single_flow, 2),
                   analysis::fmt_pct(p.single_preferred, 2),
                   analysis::fmt_pct(p.single_non_preferred, 2),
                   analysis::fmt_pct(p.two_flow, 2), analysis::fmt_pct(p.two_pref_pref, 2),
                   analysis::fmt_pct(p.two_pref_nonpref, 2),
                   analysis::fmt_pct(p.two_nonpref_pref, 2),
                   analysis::fmt_pct(p.two_nonpref_nonpref, 2),
                   analysis::fmt_pct(p.more_flows, 2),
                   analysis::fmt_pct(m.all_preferred, 2),
                   analysis::fmt_pct(m.first_preferred_then_other, 2),
                   analysis::fmt_pct(m.first_non_preferred, 2)});
    }
    return t.render();
}

std::string render_fig12(const StudyFolds& folds, std::vector<Measurement>& measured) {
    analysis::AsciiTable t({"Dataset", "Subnet", "flows%", "non-preferred%"});
    for (const auto& fold : folds.vantage) {
        for (const auto& share : fold.subnets.shares()) {
            const std::string id = "F12." + fold.scope.name + "." + share.name;
            measured.push_back({id + ".flows", share.all_flows_share});
            measured.push_back({id + ".nonpref", share.non_preferred_share});
            t.add_row({fold.scope.name, share.name,
                       analysis::fmt_pct(share.all_flows_share, 2),
                       analysis::fmt_pct(share.non_preferred_share, 2)});
        }
    }
    return t.render();
}

std::string render_resolutions(const StudyFolds& folds) {
    analysis::AsciiTable t({"Dataset", "Resolution", "flow%", "byte%"});
    for (const auto& fold : folds.vantage) {
        for (const auto& share : fold.resolutions.shares()) {
            t.add_row({fold.scope.name, std::string(cdn::to_string(share.resolution)),
                       analysis::fmt_pct(share.flow_share, 2),
                       analysis::fmt_pct(share.byte_share, 2)});
        }
    }
    return t.render();
}

}  // namespace

FullReport make_full_report(const StudyRun& run, util::ThreadPool& pool,
                            const ReportOptions& options) {
    // The artifacts render from the folds of one pass per vantage point.
    // Every closure only reads `run` and the folds (and, for Table III, the
    // CBG table located from their scopes), so they can execute in any order
    // on any thread; parallel_map returns them in list order, making the
    // report bytes independent of the schedule. Each job also returns the
    // paper_checks.txt measurements of its own computation.
    //
    // Table III's CBG phase runs between the two, on its own: it fans out
    // over the pool, and a pool task that calls the pool runs serially, so
    // inside the artifact map it would keep one lane busy long after the
    // others idle. A failure is held for the table3.txt job to rethrow, so
    // the isolation below degrades (or, in strict mode, propagates) it like
    // any other.
    const StudyFolds folds = fold_study(run, pool);
    std::vector<std::vector<net::IpAddress>> scopes;
    DcLocations table3_dcs;
    std::exception_ptr table3_error;
    if (options.include_table3) {
        for (const auto& fold : folds.vantage) scopes.push_back(fold.as.scope_servers());
        try {
            table3_dcs = locate_table3_dcs(run, scopes, options, pool);
        } catch (...) {  // ytcdn-lint: allow(catch-all) — the table3 job rethrows
            table3_error = std::current_exception();
        }
    }
    const auto& vantage = folds.vantage;

    // A job renders its artifact and appends its measurements to the vector.
    using Job =
        std::pair<std::string, std::function<std::string(std::vector<Measurement>&)>>;
    std::vector<Job> jobs;
    jobs.reserve(20);

    jobs.emplace_back("table1.txt",
                      [&vantage](auto& m) { return make_table1(vantage, &m).render(); });
    jobs.emplace_back("table2.txt",
                      [&vantage](auto& m) { return make_table2(vantage, &m).render(); });
    if (options.include_table3) {
        jobs.emplace_back("table3.txt",
                          [&run, &scopes, &table3_dcs, &table3_error](auto& m) {
                              if (table3_error) std::rethrow_exception(table3_error);
                              return render_table3_artifact(run, scopes, table3_dcs, m);
                          });
    }
    jobs.emplace_back("failure_breakdown.txt",
                      [&run](auto&) { return make_failure_table(run).render(); });
    jobs.emplace_back("retry_histogram.txt",
                      [&run](auto&) { return make_retry_table(run).render(); });
    jobs.emplace_back("resolutions.txt",
                      [&folds](auto&) { return render_resolutions(folds); });

    jobs.emplace_back("fig04_flow_sizes.dat", [&vantage](auto& measured) {
        std::vector<analysis::Series> series;
        for (const auto& fold : vantage) {
            const auto& cdf = fold.flow_sizes;
            series.push_back({fold.scope.name, cdf.curve(120)});
            // The control/video kink: no flow sizes between 1 kB and 100 kB.
            measured.push_back({"F4." + fold.scope.name + ".kink",
                                cdf.fraction_at_or_below(100e3) -
                                    cdf.fraction_at_or_below(1000.0)});
        }
        return render_series(series);
    });

    jobs.emplace_back("fig05_gap_sensitivity.dat", [&run, &folds](auto& measured) {
        const auto& us = folds.vantage[run.vp_index("US-Campus")].sessions;
        std::vector<std::pair<double, std::vector<double>>> sweep{{1.0, us.flows_cdf()}};
        for (const auto& [gap, counts] : folds.gap_sweep) {
            sweep.emplace_back(gap, analysis::flows_cdf(counts));
        }
        std::vector<analysis::Series> series;
        std::vector<double> single_flow;
        for (const auto& [gap, cdf] : sweep) {
            single_flow.push_back(cdf[0]);
            series.push_back(flows_cdf_series(
                "T=" + std::to_string(static_cast<int>(gap)) + "s", cdf));
        }
        measured.push_back(
            {"F5.T10_vs_T1", std::abs(single_flow[0] - single_flow[2])});
        measured.push_back({"F5.T300_vs_T1", single_flow[0] - single_flow[4]});
        return render_series(series);
    });

    jobs.emplace_back("fig06_flows_per_session.dat", [&vantage](auto& measured) {
        std::vector<analysis::Series> series;
        for (const auto& fold : vantage) {
            const auto cdf = fold.sessions.flows_cdf();
            measured.push_back({"F6." + fold.scope.name + ".single_flow", cdf[0]});
            series.push_back(flows_cdf_series(fold.scope.name, cdf));
        }
        return render_series(series);
    });

    jobs.emplace_back("fig07_bytes_vs_rtt.dat", [&vantage](auto& measured) {
        std::vector<analysis::Series> series;
        for (const auto& fold : vantage) {
            const auto& s = series.emplace_back(analysis::bytes_vs_rtt(
                fold.traffic.traffic(), *fold.scope.map, fold.scope.name));
            // points[0] is the origin; points[1] the lowest-RTT data center.
            if (s.points.size() > 1) {
                measured.push_back(
                    {"F7." + fold.scope.name + ".lowest_rtt_dc", s.points[1].second});
            }
        }
        return render_series(series);
    });

    jobs.emplace_back("fig08_bytes_vs_distance.dat", [&run, &vantage](auto& measured) {
        std::vector<analysis::Series> series;
        for (const auto& fold : vantage) {
            series.push_back(analysis::bytes_vs_distance(
                fold.traffic.traffic(), *fold.scope.map, fold.scope.name));
        }
        // The cumulative byte share at the fifth-closest data center.
        const auto us = run.vp_index("US-Campus");
        std::vector<double> distances;
        for (std::size_t d = 0; d < run.maps[us].num_data_centers(); ++d) {
            distances.push_back(run.maps[us].info(static_cast<int>(d)).distance_km);
        }
        if (distances.size() >= 5) {
            std::nth_element(distances.begin(), distances.begin() + 4, distances.end());
            double closest5 = 0.0;
            for (const auto& [km, cum] : series[us].points) {
                if (km <= distances[4]) closest5 = cum;
            }
            measured.push_back({"F8.US-Campus.closest5", closest5});
        }
        return render_series(series);
    });

    jobs.emplace_back("fig09_hourly_nonpreferred_cdf.dat", [&vantage](auto& measured) {
        std::vector<analysis::Series> series;
        for (const auto& fold : vantage) {
            const auto cdf = fold.hourly.non_preferred_cdf();
            series.push_back({fold.scope.name, cdf.curve(60)});
            if (!cdf.empty()) {
                measured.push_back(
                    {"F9." + fold.scope.name + ".median", cdf.quantile(0.5)});
            }
        }
        return render_series(series);
    });

    jobs.emplace_back("fig10_session_patterns.txt",
                      [&folds](auto& m) { return render_fig10(folds, m); });

    jobs.emplace_back("fig11_eu2_load_balancing.dat", [&run, &vantage](auto& measured) {
        auto hourly = vantage[run.vp_index("EU2")].hourly.preferred_series();
        const auto& flows = hourly.flows_per_hour.points;
        const auto& local = hourly.fraction_preferred.points;
        double peak_flows = 0.0, peak_local = 1.0, quiet_local = 0.0;
        for (std::size_t h = 0; h < local.size() && h < flows.size(); ++h) {
            if (flows[h].second > peak_flows) {
                peak_flows = flows[h].second;
                peak_local = local[h].second;
            }
            if (flows[h].second > 10.0) {
                quiet_local = std::max(quiet_local, local[h].second);
            }
        }
        measured.insert(measured.end(),
                        {{"F11.EU2.quiet_local", quiet_local},
                         {"F11.EU2.peak_local", peak_local},
                         {"F11.EU2.peak_flows", peak_flows},
                         {"F11.EU2.corr_load_local",
                          analysis::pearson_correlation(hourly.flows_per_hour,
                                                        hourly.fraction_preferred)}});
        return render_series({std::move(hourly.fraction_preferred),
                              std::move(hourly.flows_per_hour)});
    });

    jobs.emplace_back("fig12_subnet_breakdown.txt",
                      [&folds](auto& m) { return render_fig12(folds, m); });

    jobs.emplace_back("fig13_video_redirect_counts_cdf.dat", [&vantage](auto& measured) {
        std::vector<analysis::Series> series;
        double tail = 0.0;
        for (const auto& fold : vantage) {
            const auto counts = fold.redirects.counts_cdf();
            if (!counts.empty()) {
                series.push_back({fold.scope.name, counts.curve(60)});
                measured.push_back({"F13." + fold.scope.name + ".once",
                                    counts.fraction_at_or_below(1.0)});
                tail = std::max(tail, counts.max());
            }
        }
        measured.push_back({"F13.tail", tail});
        return render_series(series);
    });

    jobs.emplace_back("fig14_hotspot_videos.dat", [&run, &vantage](auto& measured) {
        const auto& hot = vantage[run.vp_index("EU1-ADSL")].hot_videos;
        std::vector<analysis::Series> series;
        // A promoted video's redirects fall mostly on its one promotion day.
        double promoted = 0.0;
        for (std::size_t v = 0; v < hot.videos().size(); ++v) {
            auto load = hot.load(v);
            if (peak_day_share(load.non_preferred) > 0.5) promoted += 1.0;
            series.push_back(std::move(load.all));
            series.push_back(std::move(load.non_preferred));
        }
        measured.push_back({"F14.promoted_top4", promoted});
        return render_series(series);
    });

    jobs.emplace_back("fig15_server_load.dat", [&run, &vantage](auto& measured) {
        auto load = vantage[run.vp_index("EU1-ADSL")].server_load.series();
        double worst = 0.0;
        for (std::size_t h = 0; h < load.avg.points.size(); ++h) {
            const double avg = load.avg.points[h].second;
            if (avg > 0.3) worst = std::max(worst, load.max.points[h].second / avg);
        }
        measured.push_back({"F15.max_over_avg", worst});
        return render_series({std::move(load.avg), std::move(load.max)});
    });

    jobs.emplace_back("fig16_hot_server_sessions.dat", [&run, &vantage](auto& measured) {
        const auto& adsl = vantage[run.vp_index("EU1-ADSL")];
        if (adsl.hot_videos.videos().empty()) return std::string{};
        const auto server = adsl.hot_videos.hot_server();
        auto hot = server ? adsl.sessions.hot_server(*server, adsl.scope.name)
                          : analysis::HotServerSessions{};
        const auto sum = [](const analysis::Series& s) {
            double total = 0.0;
            for (const auto& [hour, v] : s.points) total += v;
            return total;
        };
        const double all = sum(hot.all_preferred) + sum(hot.first_preferred_then_other) +
                           sum(hot.others);
        if (all > 0.0) {
            measured.push_back({"F16.all_preferred", sum(hot.all_preferred) / all});
        }
        measured.push_back({"F16.redirects_in_peak_day",
                            peak_day_share(hot.first_preferred_then_other)});
        return render_series({std::move(hot.all_preferred),
                              std::move(hot.first_preferred_then_other),
                              std::move(hot.others)});
    });

    // Per-artifact fault isolation: one failing closure degrades to a
    // placeholder naming the artifact and the error, instead of taking the
    // other ~19 artifacts down with it. Strict mode (CI) keeps fail-fast by
    // letting the exception propagate out of parallel_map.
    const bool strict = run.config.effective_strict_artifacts();
    using Rendered = std::pair<std::string, ArtifactMeasurements>;
    auto outputs = util::parallel_map(pool, jobs, [strict](const Job& job) {
        Rendered out{{}, {job.first, {}, false}};
        if (strict) {
            out.first = job.second(out.second.values);
            return out;
        }
        try {
            out.first = job.second(out.second.values);
        } catch (const std::exception& e) {
            out.first = "!! artifact '" + job.first + "' failed: " + e.what() + "\n";
            out.second = {job.first, {}, true};
        }
        return out;
    });

    FullReport report;
    report.artifacts.reserve(jobs.size() + 1);
    std::vector<ArtifactMeasurements> checks;
    checks.reserve(jobs.size());
    for (auto& [content, measured] : outputs) {
        report.artifacts.push_back({measured.artifact, std::move(content)});
        if (measured.degraded) report.degraded.push_back(measured.artifact);
        checks.push_back(std::move(measured));
    }
    report.artifacts.push_back(
        {"paper_checks.txt", render_paper_checks(checks, run.config.scale)});
    return report;
}

FullReport make_full_report(const StudyRun& run, const ReportOptions& options) {
    util::ThreadPool pool(run.config.effective_threads());
    return make_full_report(run, pool, options);
}

}  // namespace ytcdn::study
