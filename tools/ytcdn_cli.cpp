// ytcdn — command-line front end for the reproduction study.
//
//   ytcdn study      [--scale S] [--seed N] [--faults FILE] [--out DIR | --resume DIR] ...
//   ytcdn summary    LOG [LOG...]
//   ytcdn sessions   LOG [--gap T]
//   ytcdn analyze    LOG MAP [--gap T]
//   ytcdn convert    IN OUT
//   ytcdn geolocate  [--landmarks N]
//   ytcdn planetlab  [--nodes N] [--rounds R]
//   ytcdn serve      --spool DIR --out DIR [--once] [--resume] ...
//   ytcdn ctl        SOCKET COMMAND...
//
// study also accepts the observability flags:
//   --trace-out FILE     structured sim events; .jsonl writes text, anything
//                        else the YTR1 binary format (read with trace_dump)
//   --trace-filter CSV   comma-separated event-type names to record
//   --metrics-out FILE   internal counters after the run; .json or text
//
// A study run directory holds the week's flow logs as YFL2 beside each
// vantage point's .dcmap (`<out>/logs`), so it is a ytcdnd spool. The log
// readers decide the format by content (YFL2 magic, else TSV); convert
// writes by extension (.yfl binary, anything else TSV).

#include <csignal>
#include <filesystem>
#include <iostream>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"
#include "capture/flow_log.hpp"
#include "capture/log_io.hpp"
#include "geo/city.hpp"
#include "geoloc/cbg.hpp"
#include "service/control.hpp"
#include "service/service.hpp"
#include "sim/fault_injector.hpp"
#include "sim/tracer.hpp"
#include "study/deployment.hpp"
#include "study/planetlab_experiment.hpp"
#include "study/supervisor.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace {

using namespace ytcdn;

int usage() {
    std::cerr <<
        "usage: ytcdn <command> [options]\n"
        "  study      [--scale S] [--seed N] [--faults FILE] [--out DIR | --resume DIR]\n"
        "             [--attempts N] [--stages K] [--stage-deadline S] [--max-rss-mib M] [--no-table3]\n"
        "             [--trace-out FILE] [--trace-filter CSV] [--metrics-out FILE]\n"
        "                                                             supervised study: report, artifacts, logs/ spool\n"
        "  summary    LOG [LOG...]                                    Table I-style summary of flow logs\n"
        "  sessions   LOG [--gap T]                                   session statistics of a flow log\n"
        "  analyze    LOG MAP [--gap T]                               full offline analysis (preferred DC, patterns)\n"
        "  convert    IN OUT                                          convert between .tsv and .yfl logs\n"
        "  geolocate  [--scale S] [--landmarks N]                     CBG-locate every data center\n"
        "  planetlab  [--nodes N] [--rounds R]                        fresh-video active experiment\n"
        "  serve      --spool DIR --out DIR [--socket PATH] [--resume] [--once]\n"
        "             [--gap T] [--queue N] [--batch N] [--tick-ms MS] [--threads N]\n"
        "             [--attempts N] [--backoff S] [--stage-deadline S] [--checkpoint-every N]\n"
        "                                                             ytcdnd: crash-safe online-ingest daemon\n"
        "  ctl        SOCKET COMMAND...                               send one control command to a running ytcdnd\n";
    return 2;
}

study::StudyConfig config_from(const util::ArgParser& args) {
    study::StudyConfig cfg;
    cfg.scale = args.get_double_or("scale", 0.05);
    cfg.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 0xCDA12011L));
    if (cfg.scale <= 0.0) {
        throw ytcdn::Error(ytcdn::ErrorCode::InvalidArgument,
                           "--scale must be > 0");
    }
    const std::string faults = args.get_or("faults", "");
    if (!faults.empty()) {
        const std::string text =
            util::io::read_file(faults)
                .context("fault schedule " + faults)
                .value_or_throw();
        cfg.fault_schedule = sim::FaultSchedule::parse_result(text)
                                 .context("fault schedule " + faults)
                                 .value_or_throw();
    }
    return cfg;
}

/// Builds the tracer requested by --trace-out/--trace-filter, or null when
/// tracing is off (the hot paths then skip every emission branch).
std::unique_ptr<sim::Tracer> make_tracer(const util::ArgParser& args) {
    if (!args.get("trace-out")) return nullptr;
    sim::TraceFilter filter = sim::TraceFilter::all();
    if (const auto csv = args.get("trace-filter")) {
        filter = sim::TraceFilter::parse(*csv).value_or_throw();
    }
    return std::make_unique<sim::Tracer>(filter);
}

/// Writes the trace (if one was collected) and the metrics snapshot (if
/// asked for). Formats follow the extension: .jsonl / .json are text,
/// anything else the binary YTR1 trace or the line-oriented metrics text.
void write_observability(const util::ArgParser& args, const sim::Tracer* tracer) {
    if (tracer != nullptr) {
        const std::filesystem::path path(*args.get("trace-out"));
        const auto log = tracer->log();
        (path.extension() == ".jsonl" ? sim::write_trace_jsonl(path, log)
                                      : sim::write_trace_file(path, log))
            .value_or_throw();
        std::cout << "wrote " << path << " (" << log.events.size()
                  << " trace events)\n";
    }
    if (const auto metrics_path = args.get("metrics-out")) {
        const std::filesystem::path path(*metrics_path);
        const auto snapshot = util::metrics::Registry::global().snapshot();
        util::io::write_file_atomic(path, path.extension() == ".json"
                                              ? snapshot.to_json()
                                              : snapshot.render())
            .value_or_throw();
        std::cout << "wrote " << path << " (" << snapshot.entries.size()
                  << " metrics)\n";
    }
}

/// The supervised pipeline: simulate -> capture -> geolocate -> analyze ->
/// render as retryable stages with crash-safe checkpoints under the run
/// directory. `--resume DIR` picks up a killed run; the resumed report.txt
/// is byte-identical to an uninterrupted one.
int cmd_study(const util::ArgParser& args) {
    const auto cfg = config_from(args);
    study::SupervisorOptions opt;
    const std::string resume = args.get_or("resume", "");
    opt.resume = !resume.empty();
    opt.run_dir = opt.resume ? std::filesystem::path(resume)
                             : std::filesystem::path(args.get_or("out", "ytcdn_run"));
    opt.policy.attempts = static_cast<int>(args.get_long_or("attempts", 3));
    opt.policy.backoff_s = args.get_double_or("backoff", 0.05);
    opt.policy.deadline_s = args.get_double_or("stage-deadline", 0.0);
    opt.policy.max_rss_mib = args.get_double_or("max-rss-mib", 0.0);
    opt.max_stages = static_cast<std::size_t>(args.get_long_or("stages", 0));
    opt.report.include_table3 = !args.has_flag("no-table3");
    opt.log = &std::cerr;  // progress/warnings; stdout carries the summary
    const auto tracer = make_tracer(args);
    opt.tracer = tracer.get();

    study::Supervisor supervisor(cfg, opt);
    const auto result = supervisor.run().value_or_throw();
    write_observability(args, tracer.get());

    std::size_t resumed = 0;
    for (const auto& st : result.stages) resumed += st.from_checkpoint ? 1 : 0;
    if (!result.completed) {
        std::cout << "run interrupted after --stages limit; resume with:\n"
                  << "  ytcdn study --resume " << opt.run_dir.string() << '\n';
        return 0;
    }
    std::cout << "run complete: " << result.report_path.string() << " ("
              << resumed << " stages from checkpoints, " << result.degraded.size()
              << " degraded artifacts)\n";
    for (const auto& name : result.degraded) {
        std::cout << "  degraded: " << name << '\n';
    }
    return 0;
}

int cmd_analyze(const util::ArgParser& args) {
    if (args.positionals().size() != 3) return usage();
    capture::Dataset ds;
    ds.name = args.positionals()[1];
    ds.records = capture::read_flow_log(args.positionals()[1]);
    ds.sort_by_time();
    std::istringstream map_is(
        util::io::read_file(args.positionals()[2]).value_or_throw());
    const auto map = analysis::read_dc_map(map_is);

    const int preferred = analysis::preferred_dc(ds, map);
    if (preferred < 0) throw std::runtime_error("no mapped flows in the log");
    const auto share = analysis::non_preferred_share(ds, map, preferred);
    auto sessions = analysis::fold_records(
        ds, map, analysis::SessionFold(preferred, args.get_double_or("gap", 1.0)));
    sessions.finish();
    const auto patterns = sessions.patterns();

    analysis::AsciiTable t({"metric", "value"});
    t.add_row({"flows", std::to_string(ds.records.size())});
    t.add_row({"mapped data centers", std::to_string(map.num_data_centers())});
    t.add_row({"preferred DC", map.info(preferred).name});
    t.add_row({"preferred DC RTT [ms]", analysis::fmt(map.info(preferred).rtt_ms, 1)});
    t.add_row({"preferred byte share %",
               analysis::fmt_pct(1.0 - share.byte_fraction, 1)});
    t.add_row({"non-preferred flow share %", analysis::fmt_pct(share.flow_fraction, 1)});
    t.add_row({"sessions", std::to_string(patterns.total_sessions)});
    t.add_row({"single-flow sessions %", analysis::fmt_pct(patterns.single_flow, 1)});
    t.add_row({"  of which non-preferred %",
               analysis::fmt_pct(patterns.single_non_preferred, 1)});
    t.add_row({"2-flow (pref,nonpref) %",
               analysis::fmt_pct(patterns.two_pref_nonpref, 1)});
    std::cout << t;
    return 0;
}

int cmd_summary(const util::ArgParser& args) {
    if (args.positionals().size() < 2) return usage();
    analysis::AsciiTable t({"log", "flows", "volume[GB]", "servers", "clients"});
    for (std::size_t i = 1; i < args.positionals().size(); ++i) {
        capture::Dataset ds;
        ds.name = args.positionals()[i];
        ds.records = capture::read_flow_log(args.positionals()[i]);
        const auto s = analysis::fold_records(ds, analysis::IncrementalSummary{});
        t.add_row({ds.name, std::to_string(s.flows), analysis::fmt(s.volume_gb(), 2),
                   std::to_string(s.servers.size()),
                   std::to_string(s.clients.size())});
    }
    std::cout << t;
    return 0;
}

int cmd_sessions(const util::ArgParser& args) {
    if (args.positionals().size() != 2) return usage();
    const double gap = args.get_double_or("gap", 1.0);
    capture::Dataset ds;
    ds.records = capture::read_flow_log(args.positionals()[1]);
    ds.sort_by_time();
    const auto counts = analysis::count_sessions(ds, gap);
    std::uint64_t sessions = 0;
    for (const auto n : counts) sessions += n;
    const auto cdf = analysis::flows_cdf(counts);
    std::cout << sessions << " sessions at T=" << gap << "s\n";
    // The last bucket is open-ended: sessions of cdf.size() or more flows.
    for (std::size_t i = 0; i < cdf.size(); ++i) {
        const bool last = i + 1 == cdf.size();
        std::cout << (last ? "" : " ") << i + 1 << (last ? "+" : "")
                  << " flows: CDF " << analysis::fmt(cdf[i], 4) << '\n';
    }
    return 0;
}

int cmd_convert(const util::ArgParser& args) {
    if (args.positionals().size() != 3) return usage();
    const std::filesystem::path in(args.positionals()[1]);
    const std::filesystem::path out(args.positionals()[2]);
    const auto records = capture::read_flow_log(in);
    capture::write_any_log(out, records);
    std::cout << "converted " << records.size() << " records: " << in << " -> " << out
              << '\n';
    return 0;
}

int cmd_geolocate(const util::ArgParser& args) {
    study::StudyConfig cfg = config_from(args);
    cfg.scale = std::min(cfg.scale, 0.01);  // topology only
    study::StudyDeployment deployment(cfg);

    geoloc::LandmarkCounts counts;
    const long n = args.get_long_or("landmarks", 215);
    if (n != 215) {
        const double f = static_cast<double>(n) / 215.0;
        counts.north_america = std::max(1, static_cast<int>(97 * f));
        counts.europe = std::max(1, static_cast<int>(82 * f));
        counts.asia = std::max(1, static_cast<int>(24 * f));
        counts.south_america = std::max(1, static_cast<int>(8 * f));
        counts.oceania = std::max(1, static_cast<int>(3 * f));
        counts.africa = 1;
    }
    geoloc::CbgLocator locator(
        deployment.rtt(),
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(cfg.seed ^ 0x9B), counts),
        {}, cfg.seed ^ 0xCB6);
    locator.calibrate();

    analysis::AsciiTable t({"data center", "CBG estimate", "err[km]", "radius[km]"});
    for (const auto& dc : deployment.cdn().data_centers()) {
        if (!cdn::in_analysis_scope(dc.infra) || dc.servers.empty()) continue;
        const auto result = locator.locate(dc.site);
        const geo::City* snapped =
            geoloc::snap_to_city(result, geo::CityDatabase::builtin());
        t.add_row({dc.city, snapped != nullptr ? snapped->name : "(unlocated)",
                   analysis::fmt(result.valid
                                     ? geo::distance_km(result.estimate, dc.location)
                                     : -1.0,
                                 0),
                   analysis::fmt(result.confidence_radius_km, 0)});
    }
    std::cout << t;
    return 0;
}

int cmd_planetlab(const util::ArgParser& args) {
    study::StudyConfig cfg = config_from(args);
    cfg.scale = 0.01;
    study::StudyDeployment deployment(cfg);
    study::PlanetLabConfig pl;
    pl.nodes = static_cast<int>(args.get_long_or("nodes", 45));
    pl.rounds = static_cast<int>(args.get_long_or("rounds", 25));
    const auto result = study::run_planetlab_experiment(
        deployment,
        geoloc::make_planetlab_landmarks(geo::CityDatabase::builtin(),
                                         sim::Rng(cfg.seed ^ 0x9B)),
        pl);
    int above1 = 0;
    for (const double r : result.rtt_ratio) above1 += r > 1.2 ? 1 : 0;
    std::cout << pl.nodes << " nodes, " << pl.rounds << " rounds: " << above1
              << " nodes saw RTT1/RTT2 > 1 (first access served remotely)\n";
    for (const auto& node : result.nodes) {
        std::cout << "  " << node.node << ": " << node.served_from[0] << " ("
                  << analysis::fmt(node.rtt_ms[0], 1) << "ms) -> "
                  << node.served_from[1] << " (" << analysis::fmt(node.rtt_ms[1], 1)
                  << "ms)\n";
    }
    return 0;
}

void handle_stop_signal(int) { service::request_stop(); }

/// ytcdnd: the crash-safe long-running service mode (DESIGN.md §15).
/// SIGTERM/SIGINT quiesce the loop, flush the service checkpoint and exit
/// cleanly; kill -9 + `--resume` replays the spool to byte-identical
/// aggregates.
int cmd_serve(const util::ArgParser& args) {
    service::ServiceOptions opt;
    opt.spool_dir = args.get_or("spool", "");
    opt.run_dir = args.get_or("out", "");
    opt.socket_path = args.get_or("socket", "");
    opt.resume = args.has_flag("resume");
    opt.once = args.has_flag("once");
    opt.gap_T_s = args.get_double_or("gap", 1.0);
    opt.queue_capacity = static_cast<std::size_t>(args.get_long_or("queue", 0));
    opt.batch_records = static_cast<std::size_t>(args.get_long_or("batch", 4096));
    opt.tick_ms = static_cast<int>(args.get_long_or("tick-ms", 50));
    opt.checkpoint_every =
        static_cast<std::size_t>(args.get_long_or("checkpoint-every", 1));
    opt.threads = static_cast<std::size_t>(args.get_long_or("threads", 0));
    opt.policy.attempts = static_cast<int>(args.get_long_or("attempts", 3));
    opt.policy.backoff_s = args.get_double_or("backoff", 0.05);
    opt.policy.deadline_s = args.get_double_or("stage-deadline", 0.0);
    opt.log = &std::cerr;  // progress/warnings; stdout carries the summary

    service::clear_stop();
    std::signal(SIGTERM, &handle_stop_signal);
    std::signal(SIGINT, &handle_stop_signal);

    service::Service daemon(opt);
    const auto report = daemon.run().value_or_throw();
    std::cout << "ytcdnd: " << report.files_ingested << " files, "
              << report.records_ingested << " records ingested, "
              << report.batches_shed << " batches shed ("
              << report.records_shed << " records)\n"
              << "  manifest:   " << report.manifest_path.string() << '\n'
              << "  aggregates: " << report.aggregates_path.string() << '\n';
    return 0;
}

/// One-shot control client: connect, send the command line, print the
/// daemon's reply. Exit 0 on an "ok" reply, 1 on "err".
int cmd_ctl(const util::ArgParser& args) {
    const auto& pos = args.positionals();
    if (pos.size() < 3) return usage();
    std::string line;
    for (std::size_t i = 2; i < pos.size(); ++i) {
        if (i > 2) line += ' ';
        line += pos[i];
    }
    const int fd = util::io::connect_unix(pos[1])
                       .context("control socket " + pos[1])
                       .value_or_throw();
    util::io::write_fd_all(fd, line + "\n").value_or_throw();
    const std::string reply =
        util::io::read_all_fd(fd, 5000).value_or_throw();
    util::io::close_fd(fd);
    std::cout << reply;
    return reply.rfind("ok", 0) == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        // Chaos hook: YTCDN_IO_FAULTS installs a deterministic fault plan
        // on the util::io facade for every file this process touches.
        ytcdn::util::io::install_fault_plan_from_env().value_or_throw();
        // `--resume` takes a directory for `study` but is a boolean for
        // `serve` (the daemon's run dir is always --out), so the flag set
        // depends on the verb.
        std::vector<std::string> flags = {"no-table3"};
        if (argc > 1 && std::string_view(argv[1]) == "serve") {
            flags.insert(flags.end(), {"resume", "once"});
        }
        const util::ArgParser args(argc, argv, std::move(flags));
        if (args.positionals().empty()) return usage();
        const std::string& cmd = args.positionals().front();
        if (cmd == "study") return cmd_study(args);
        if (cmd == "summary") return cmd_summary(args);
        if (cmd == "sessions") return cmd_sessions(args);
        if (cmd == "analyze") return cmd_analyze(args);
        if (cmd == "convert") return cmd_convert(args);
        if (cmd == "geolocate") return cmd_geolocate(args);
        if (cmd == "planetlab") return cmd_planetlab(args);
        if (cmd == "serve") return cmd_serve(args);
        if (cmd == "ctl") return cmd_ctl(args);
        std::cerr << "unknown command '" << cmd << "'\n";
        return usage();
    } catch (const ytcdn::Error& e) {
        // Typed I/O-boundary errors carry their exit-code category:
        // 2 usage, 3 I/O, 4 corrupt input, 5 parse failure.
        std::cerr << "error: " << e.what() << '\n';
        return ytcdn::exit_code_for(e.code());
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << '\n';
        return 1;
    }
}
