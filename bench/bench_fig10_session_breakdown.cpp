// Fig. 10 — breakdown of 1-flow sessions (a) and 2-flow sessions (b) by
// whether each flow hits the preferred data center. Disambiguates
// DNS-driven from redirection-driven non-preferred accesses.

#include "analysis/session.hpp"
#include "analysis/session_analysis.hpp"
#include "analysis/table.hpp"
#include "bench_common.hpp"

namespace {

using namespace ytcdn;

void print_reproduction() {
    bench::print_banner(
        "Fig. 10: session breakdown vs preferred data center",
        "(a) US-Campus: ~80% single-flow, ~5% of which non-preferred (EU2: "
        ">40% non-preferred). (b) EU1: a significant share of 2-flow "
        "sessions is (preferred -> non-preferred), i.e. app-layer "
        "redirection; EU2 2-flow sessions are dominated by "
        "(non-preferred, non-preferred), i.e. DNS");
    const auto& run = bench::shared_run();

    analysis::AsciiTable a({"Dataset", "1-flow%", "  pref%", "  nonpref%"});
    analysis::AsciiTable b({"Dataset", "2-flow%", "  p,p%", "  p,n%", "  n,p%",
                            "  n,n%", ">2-flow%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto p = analysis::session_patterns(run.sessions[i], run.dc_columns[i],
                                                  run.preferred[i]);
        a.add_row({run.traces.datasets[i].name, analysis::fmt_pct(p.single_flow, 1),
                   analysis::fmt_pct(p.single_preferred, 1),
                   analysis::fmt_pct(p.single_non_preferred, 1)});
        b.add_row({run.traces.datasets[i].name, analysis::fmt_pct(p.two_flow, 1),
                   analysis::fmt_pct(p.two_pref_pref, 1),
                   analysis::fmt_pct(p.two_pref_nonpref, 1),
                   analysis::fmt_pct(p.two_nonpref_pref, 1),
                   analysis::fmt_pct(p.two_nonpref_nonpref, 1),
                   analysis::fmt_pct(p.more_flows, 1)});
    }
    std::cout << "(a) single-flow sessions (fractions of all sessions)\n"
              << a << "\n(b) two-flow sessions (fractions of all sessions)\n"
              << b << '\n';

    // Section VI-C's coda: sessions with more than 2 flows behave like the
    // 2-flow ones (first access preferred, later ones redirected).
    analysis::AsciiTable c({"Dataset", ">2-flow share%", "all-pref%",
                            "first-pref-then-other%", "first-nonpref%"});
    for (std::size_t i = 0; i < run.traces.datasets.size(); ++i) {
        const auto m = analysis::multi_flow_patterns(run.sessions[i],
                                                     run.dc_columns[i], run.preferred[i]);
        c.add_row({run.traces.datasets[i].name,
                   analysis::fmt_pct(m.share_of_all_sessions, 2),
                   analysis::fmt_pct(m.all_preferred, 1),
                   analysis::fmt_pct(m.first_preferred_then_other, 1),
                   analysis::fmt_pct(m.first_non_preferred, 1)});
    }
    std::cout << "(c) sessions with more than 2 flows  # paper: 5.18-10% of "
                 "sessions, similar trends\n"
              << c << '\n';
}

// The two halves of the figure's cost: grouping a dataset's records into
// CSR sessions (one global sort), and the pattern scan over them (dc_column
// reads per flow row).
void bm_session_table_build(benchmark::State& state) {
    const auto& ds = bench::shared_run().traces.datasets[0];
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::SessionTable::build(ds, 1.0));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(ds.records.size()));
}
BENCHMARK(bm_session_table_build)->Unit(benchmark::kMillisecond);

void bm_session_patterns(benchmark::State& state) {
    const auto& run = bench::shared_run();
    for (auto _ : state) {
        benchmark::DoNotOptimize(analysis::session_patterns(
            run.sessions[0], run.dc_columns[0], run.preferred[0]));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(run.sessions[0].num_sessions()));
}
BENCHMARK(bm_session_patterns)->Unit(benchmark::kMillisecond);

}  // namespace

YTCDN_BENCH_MAIN(print_reproduction)
