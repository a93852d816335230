#include "study/paper_checks.hpp"

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string_view>
#include <utility>

#include "analysis/table.hpp"

namespace ytcdn::study {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `v` ± `r`·v: a count the workload is calibrated to.
constexpr CheckRange rel(double v, double r) { return {v * (1.0 - r), v * (1.0 + r)}; }
/// A share the paper quotes as `v` percent, ± `points` percentage points.
constexpr CheckRange pct(double v, double points) {
    return {std::max(0.0, (v - points) / 100.0), std::min(1.0, (v + points) / 100.0)};
}
constexpr CheckRange between(double lo, double hi) { return {lo, hi}; }
constexpr CheckRange at_least(double lo) { return {lo, kInf}; }

constexpr auto kPct = CheckUnit::Percent;
constexpr auto kCount = CheckUnit::Count;
constexpr auto kRatio = CheckUnit::Ratio;
constexpr auto kVol = CheckUnit::Volume;

constexpr const char* kT1 = "table1.txt";
constexpr const char* kT2 = "table2.txt";
constexpr const char* kT3 = "table3.txt";
constexpr const char* kF10 = "fig10_session_patterns.txt";
constexpr const char* kF11 = "fig11_eu2_load_balancing.dat";
constexpr const char* kF13 = "fig13_video_redirect_counts_cdf.dat";

using Datasets = std::initializer_list<const char*>;
constexpr Datasets kAll = {"US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2"};
constexpr Datasets kNotEu2 = {"US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH"};
constexpr Datasets kEu1 = {"EU1-Campus", "EU1-ADSL", "EU1-FTTH"};

// The deviation numbers are EXPERIMENTS.md's "Known deviations".
std::vector<PaperCheck> make_checks() {
    std::vector<PaperCheck> c;
    const auto add = [&c](std::string id, const char* artifact, std::string claim,
                          CheckUnit unit, CheckRange accepted, int deviation = 0,
                          CheckRange band = {}) {
        c.push_back({std::move(id), artifact, std::move(claim), unit, accepted, deviation,
                     band});
    };
    // One row per dataset; the '*' in `pattern` becomes the dataset's name.
    const auto each = [&add](Datasets datasets, std::string_view pattern,
                             const char* artifact, const char* claim, CheckUnit unit,
                             CheckRange accepted, int deviation = 0,
                             CheckRange band = {}) {
        const auto star = pattern.find('*');
        for (const char* ds : datasets) {
            add(std::string(pattern.substr(0, star)) + ds +
                    std::string(pattern.substr(star + 1)),
                artifact, claim, unit, accepted, deviation, band);
        }
    };

    // Table I: paper counts; servers do not scale with volume (deviation 1).
    struct T1Row {
        const char* ds;
        double flows, gb, servers, clients;
        int gb_deviation;
    };
    const auto paper = [](double v, const char* what) {
        return analysis::fmt(v, 0) + " " + what;
    };
    for (const T1Row& r : {T1Row{"US-Campus", 874649, 7061.27, 1985, 20443, 0},
                           T1Row{"EU1-Campus", 134789, 580.25, 1102, 1113, 6},
                           T1Row{"EU1-ADSL", 877443, 3709.98, 1977, 8348, 6},
                           T1Row{"EU1-FTTH", 91955, 463.1, 1081, 997, 0},
                           T1Row{"EU2", 513403, 2834.99, 1637, 6552, 0}}) {
        const std::string id = std::string("T1.") + r.ds;
        add(id + ".flows", kT1, paper(r.flows, "flows"), kVol, rel(r.flows, 0.1));
        add(id + ".volume_gb", kT1, paper(r.gb, "GB"), kVol, rel(r.gb, 0.1),
            r.gb_deviation, rel(r.gb, 0.25));
        add(id + ".servers", kT1, paper(r.servers, "servers"), kCount,
            rel(r.servers, 0.1), 1, rel(r.servers, 0.5));
        add(id + ".clients", kT1, paper(r.clients, "clients"), kVol, rel(r.clients, 0.1));
    }

    add("T2.US-Campus.google_bytes", kT2, "98.96% of bytes from Google", kPct,
        pct(98.96, 5));
    add("T2.EU1-Campus.google_bytes", kT2, "97.8% of bytes from Google", kPct,
        pct(97.8, 5));
    add("T2.EU1-ADSL.google_bytes", kT2, "98.8% of bytes from Google", kPct,
        pct(98.8, 5));
    add("T2.EU1-FTTH.google_bytes", kT2, "99% of bytes from Google", kPct, pct(99, 5));
    add("T2.EU2.google_bytes", kT2, "49.2% of bytes from Google", kPct, pct(49.2, 5));
    each(kAll, "T2.*.yteu_servers", kT2, "YT-EU: 15-29% of servers", kPct, pct(22, 7), 1,
         pct(22, 13));
    each(kNotEu2, "T2.*.yteu_bytes", kT2, "YT-EU: ~1% of bytes", kPct, pct(0, 2));
    add("T2.EU2.yteu_bytes", kT2, "YT-EU: 10.4% of bytes", kPct, pct(10.4, 5));
    each(kNotEu2, "T2.*.same_as_bytes", kT2, "no Same-AS bytes", kPct, pct(0, 0));
    add("T2.EU2.same_as_bytes", kT2, "38.6% of bytes in-ISP", kPct, pct(38.6, 5), 5,
        pct(38.6, 10));

    each(kAll, "T3.*.home_share", kT3, "home continent, >=10% elsewhere", kPct,
         between(0.5, 0.9), 1, between(0.5, 0.97));
    add("T3.dc_cities", kT3, "33 data centers", kCount, between(33, 33), 9,
        between(30, 33));

    each(kAll, "F4.*.kink", "fig04_flow_sizes.dat", "kink at 1000 B: no flows 1-100 kB",
         kPct, pct(0, 1));
    add("F5.T10_vs_T1", "fig05_gap_sensitivity.dat", "T=1/5/10 s equivalent", kPct,
        pct(0, 1));
    add("F5.T300_vs_T1", "fig05_gap_sensitivity.dat", "T=60/300 s merge interactions",
        kPct, between(0.01, 1));
    each(kAll, "F6.*.single_flow", "fig06_flows_per_session.dat",
         "72.5-80.5% single-flow", kPct, pct(76.5, 4), 4, pct(77.5, 5.5));
    each(kNotEu2, "F7.*.lowest_rtt_dc", "fig07_bytes_vs_rtt.dat",
         "lowest-RTT DC >85% of bytes", kPct, between(0.85, 1));
    add("F7.EU2.lowest_rtt_dc", "fig07_bytes_vs_rtt.dat", "EU2: no DC above 85%", kPct,
        between(0, 0.85));
    add("F8.US-Campus.closest5", "fig08_bytes_vs_distance.dat",
        "5 closest DCs <2% of bytes", kPct, pct(0, 2));
    each(kNotEu2, "F9.*.median", "fig09_hourly_nonpreferred_cdf.dat",
         "US/EU1: modest hourly fraction", kPct, pct(0, 20));
    add("F9.EU2.median", "fig09_hourly_nonpreferred_cdf.dat", "EU2: 50% of hours >40%",
        kPct, between(0.4, 1), 5, between(0.25, 1));

    each(kNotEu2, "F10.*.single_nonpref", kF10, "~5% 1-flow non-pref", kPct, pct(5, 3));
    add("F10.EU2.single_nonpref", kF10, ">40% 1-flow non-pref", kPct, between(0.4, 1), 5,
        between(0.35, 1));
    // Of the 2-flow sessions that leave the preferred DC: EU1's are redirected
    // (p,n), EU2's are sent away by DNS (n,n).
    each(kEu1, "F10.*.2flow_pn", kF10, "EU1: (p,n) redirection", kPct, between(0.5, 1));
    add("F10.EU2.2flow_nn", kF10, "EU2: (n,n) dominates", kPct, between(0.5, 1));

    add("F11.EU2.quiet_local", kF11, "~100% local at night", kPct, between(0.95, 1));
    add("F11.EU2.peak_local", kF11, "~30% local at the peak", kPct, pct(30, 10));
    add("F11.EU2.peak_flows", kF11, "~6000 flows/h peaks", kVol, rel(6000, 0.2));
    add("F11.EU2.corr_load_local", kF11, "local share falls with load", kRatio,
        between(-1, -0.5));
    add("F12.US-Campus.Net-3.flows", "fig12_subnet_breakdown.txt", "Net-3 ~4% of flows",
        kPct, pct(4, 2));
    add("F12.US-Campus.Net-3.nonpref", "fig12_subnet_breakdown.txt",
        "Net-3 ~50% of non-pref", kPct, pct(50, 10));
    each(kNotEu2, "F13.*.once", kF13, "~85% redirected once", kPct, pct(85, 5), 7,
         pct(85, 8));
    add("F13.EU2.once", kF13, "~85% redirected once", kPct, pct(85, 5), 3,
        pct(77.5, 12.5));
    add("F13.tail", kF13, "tail >1000 redirects", kVol, at_least(1000));
    add("F14.promoted_top4", "fig14_hotspot_videos.dat",
        "top-4 redirected videos: one-day spikes", kCount, between(4, 4), 8,
        between(3, 4));
    add("F15.max_over_avg", "fig15_server_load.dat", "max >> avg (650 vs 50)", kRatio,
        at_least(10));
    add("F16.all_preferred", "fig16_hot_server_sessions.dat",
        "mostly all-preferred sessions", kPct, between(0.5, 1));
    add("F16.redirects_in_peak_day", "fig16_hot_server_sessions.dat",
        "redirect surge on one day", kPct, between(0.5, 1));
    return c;
}

bool inside(const CheckRange& r, double v) { return v >= r.lo && v <= r.hi; }

int decimals(CheckUnit unit) {
    switch (unit) {
        case CheckUnit::Percent: return 1;
        case CheckUnit::Ratio: return 2;
        case CheckUnit::Count:
        case CheckUnit::Volume: return 0;
    }
    return 0;
}

std::string show(CheckUnit unit, double v) {
    if (unit == CheckUnit::Percent) return analysis::fmt_pct(v, decimals(unit)) + "%";
    return analysis::fmt(v, decimals(unit));
}

std::string show(CheckUnit unit, const CheckRange& r) {
    if (r.hi == kInf) return ">= " + show(unit, r.lo);
    if (r.lo == -kInf) return "<= " + show(unit, r.hi);
    if (r.lo == r.hi) return "= " + show(unit, r.lo);
    return show(unit, r.lo) + ".." + show(unit, r.hi);
}

}  // namespace

std::span<const PaperCheck> paper_checks() {
    static const std::vector<PaperCheck> checks = make_checks();
    return checks;
}

std::string verdict(const PaperCheck& check, double value) {
    if (inside(check.accepted, value)) return "pass";
    if (check.deviation != 0 && inside(check.band, value)) {
        return "deviation " + std::to_string(check.deviation);
    }
    return "FAIL";
}

std::string render_paper_checks(std::span<const ArtifactMeasurements> artifacts,
                                double scale) {
    std::map<std::string_view, const ArtifactMeasurements*> by_artifact;
    std::map<std::string_view, double> measured;
    for (const auto& a : artifacts) {
        by_artifact[a.artifact] = &a;
        for (const auto& m : a.values) measured[m.id] = m.value;
    }
    analysis::AsciiTable t(
        {"Id", "Artifact", "Paper", "Measured", "Accepted", "Verdict"});
    for (const auto& c : paper_checks()) {
        const auto artifact = by_artifact.find(c.artifact);
        if (artifact == by_artifact.end()) continue;
        const auto it = measured.find(c.id);
        std::string value = "-";
        std::string result = "FAIL";
        if (artifact->second->degraded) {
            result = "degraded";
        } else if (it != measured.end()) {
            const double v =
                c.unit == CheckUnit::Volume ? it->second / scale : it->second;
            value = show(c.unit, v);
            result = verdict(c, v);
        }
        t.add_row({c.id, c.artifact, c.claim, value, show(c.unit, c.accepted), result});
    }
    return "# scale " + analysis::fmt(scale, 3) +
           "; counts that grow with the trace volume show measured / scale\n" +
           t.render();
}

}  // namespace ytcdn::study
