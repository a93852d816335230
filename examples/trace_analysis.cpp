// Trace analysis: the paper's offline workflow on persisted flow logs.
// Simulates a day of traffic at one vantage point, writes the Tstat-style
// log to disk, reads it back, and runs the session/selection analyses on
// the re-loaded dataset — demonstrating that the analysis layer only needs
// the flow logs, exactly as the paper's toolchain did.
//
// Usage: trace_analysis [log_path]   (default: ./eu1_adsl_flows.tsv)

#include <filesystem>
#include <iostream>

#include "analysis/incremental.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "capture/flow_log.hpp"
#include "study/dc_map_builder.hpp"
#include "study/study_run.hpp"

int main(int argc, char** argv) {
    using namespace ytcdn;

    const std::filesystem::path path =
        argc > 1 ? argv[1] : std::filesystem::path("eu1_adsl_flows.tsv");

    study::StudyConfig config;
    config.scale = 0.03;
    std::cout << "Capturing a scaled week at EU1-ADSL...\n";
    const study::StudyRun run = study::run_study(config);
    const auto idx = run.vp_index("EU1-ADSL");

    std::cout << "Writing " << run.traces.datasets[idx].records.size()
              << " flow records to " << path << "\n";
    capture::write_flow_log(path, run.traces.datasets[idx].records);

    // --- The offline part: everything below only touches the log file. ---
    capture::Dataset dataset;
    dataset.name = "EU1-ADSL (from log)";
    dataset.records = capture::read_flow_log(path);
    dataset.sort_by_time();
    std::cout << "Re-loaded " << dataset.records.size() << " records\n\n";

    const auto summary = analysis::fold_records(dataset, analysis::IncrementalSummary{});
    std::cout << "flows=" << summary.flows << " volume="
              << analysis::fmt(summary.volume_gb(), 2) << " GB servers="
              << summary.servers.size() << " clients=" << summary.clients.size()
              << "\n\n";

    const auto& map = run.maps[idx];
    const int preferred = analysis::preferred_dc(dataset, map);
    std::cout << "Preferred data center: " << map.info(preferred).name << " ("
              << analysis::fmt(map.info(preferred).rtt_ms, 1) << " ms)\n";

    auto sessions =
        analysis::fold_records(dataset, map, analysis::SessionFold(preferred, 1.0));
    sessions.finish();
    const auto patterns = sessions.patterns();
    analysis::AsciiTable t({"metric", "value"});
    t.add_row({"sessions", std::to_string(patterns.total_sessions)});
    t.add_row({"single-flow %", analysis::fmt_pct(patterns.single_flow, 1)});
    t.add_row({"  ... to non-preferred %",
               analysis::fmt_pct(patterns.single_non_preferred, 1)});
    t.add_row({"two-flow (pref,nonpref) %",
               analysis::fmt_pct(patterns.two_pref_nonpref, 1)});
    const auto share = analysis::non_preferred_share(dataset, map, preferred);
    t.add_row({"non-preferred byte %", analysis::fmt_pct(share.byte_fraction, 1)});
    std::cout << t;

    std::filesystem::remove(path);
    return 0;
}
