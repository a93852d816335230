#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <span>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "service/control.hpp"
#include "service/spool.hpp"
#include "sim/random.hpp"
#include "study/checkpoint.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace ytcdn::service {

namespace {

/// The longest single wait of an idle tick: a stop request ends the tick
/// within this, however long `tick_ms` is.
constexpr int kStopCheckMs = 100;

struct ServiceMetrics {
    util::metrics::Counter files_ingested =
        util::metrics::counter("service.files_ingested");
    util::metrics::Counter records_ingested =
        util::metrics::counter("service.records_ingested");
    util::metrics::Counter files_quarantined =
        util::metrics::counter("service.files_quarantined");
    util::metrics::Counter batches_shed =
        util::metrics::counter("service.batches_shed");
    util::metrics::Counter records_shed =
        util::metrics::counter("service.records_shed");
    util::metrics::Counter control_commands =
        util::metrics::counter("service.control_commands");
    util::metrics::Counter control_errors =
        util::metrics::counter("service.control_errors");
    util::metrics::Counter checkpoints_written =
        util::metrics::counter("service.checkpoints_written");
    util::metrics::Counter ticks =
        util::metrics::counter("service.ticks");
    util::metrics::Gauge queue_peak =
        util::metrics::gauge("service.queue_peak_batches");
};

ServiceMetrics& service_metrics() {
    static ServiceMetrics metrics;
    return metrics;
}

// Lock-free, so a signal handler may set it, and atomic, so another thread
// may too (a volatile sig_atomic_t is only safe from a handler).
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free);

std::string hex(std::uint64_t v, int digits) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(static_cast<std::size_t>(digits), '0');
    for (int i = digits - 1; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
        v >>= 4;
    }
    return out;
}

/// Every option that shapes aggregate bytes. The control-mutation history
/// (fault plans installed at runtime) is deliberately excluded: it is
/// checkpointed state, not the key.
std::uint64_t fingerprint_of(const ServiceOptions& options) {
    std::uint64_t h = sim::mix64(0x79'74'63'64'6Eull);  // "ytcdn" salt
    const auto fold = [&h](std::uint64_t v) { h = sim::mix64(h ^ v); };
    fold(std::bit_cast<std::uint64_t>(options.gap_T_s));
    fold(options.queue_capacity);
    fold(options.batch_records);
    return h;
}

// --- composite checkpoint payload -------------------------------------------
//
// aggregates section (ServiceAggregates codec) + processed-file ledger +
// shed log + control-mutation history + totals. Same conventions as the
// aggregates codec: little-endian, u32-length strings.

/// "service checkpoint payload truncated at byte N".
Error truncated(const util::ByteReader& in) {
    return Error(ErrorCode::Truncated,
                 "service checkpoint payload truncated at byte " +
                     std::to_string(in.offset()));
}

struct ServiceState {
    ServiceAggregates aggregates{1.0};
    std::vector<ProcessedFile> ledger;
    std::vector<ShedRecord> shed_log;
    std::vector<std::string> mutations;  // applied control mutations, in order
    std::uint64_t files_ingested = 0;
    std::uint64_t records_ingested = 0;
};

std::string encode_state(const ServiceState& state) {
    std::string buf;
    util::put_str32(buf, state.aggregates.encode());
    util::put(buf, static_cast<std::uint32_t>(state.ledger.size()));
    for (const auto& entry : state.ledger) {
        util::put_str32(buf, entry.name);
        util::put(buf, entry.size);
        util::put(buf, entry.crc);
        util::put(buf, entry.records);
        util::put(buf, entry.batches);
        util::put(buf, entry.shed_batches);
        util::put_str32(buf, entry.status);
    }
    util::put(buf, static_cast<std::uint32_t>(state.shed_log.size()));
    for (const auto& shed : state.shed_log) {
        util::put_str32(buf, shed.file);
        util::put(buf, shed.batch);
        util::put(buf, shed.records);
    }
    util::put(buf, static_cast<std::uint32_t>(state.mutations.size()));
    for (const auto& mutation : state.mutations) util::put_str32(buf, mutation);
    util::put(buf, state.files_ingested);
    util::put(buf, state.records_ingested);
    return buf;
}

util::Result<ServiceState> decode_state(std::string_view payload) {
    util::ByteReader r(payload);
    ServiceState state;
    std::string aggregates_payload;
    if (!r.take_str32(&aggregates_payload)) return truncated(r);
    auto aggregates = ServiceAggregates::decode(aggregates_payload);
    if (!aggregates) {
        return std::move(aggregates).context("service checkpoint").error();
    }
    state.aggregates = std::move(aggregates).value();

    std::uint32_t n = 0;
    if (!r.take(&n)) return truncated(r);
    for (std::uint32_t i = 0; i < n; ++i) {
        ProcessedFile entry;
        if (!r.take_str32(&entry.name) || !r.take(&entry.size) ||
            !r.take(&entry.crc) || !r.take(&entry.records) ||
            !r.take(&entry.batches) || !r.take(&entry.shed_batches) ||
            !r.take_str32(&entry.status)) {
            return truncated(r);
        }
        state.ledger.push_back(std::move(entry));
    }
    if (!r.take(&n)) return truncated(r);
    for (std::uint32_t i = 0; i < n; ++i) {
        ShedRecord shed;
        if (!r.take_str32(&shed.file) || !r.take(&shed.batch) ||
            !r.take(&shed.records)) {
            return truncated(r);
        }
        state.shed_log.push_back(std::move(shed));
    }
    if (!r.take(&n)) return truncated(r);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::string mutation;
        if (!r.take_str32(&mutation)) return truncated(r);
        state.mutations.push_back(std::move(mutation));
    }
    if (!r.take(&state.files_ingested) || !r.take(&state.records_ingested)) {
        return truncated(r);
    }
    if (!r.done()) {
        return Error(ErrorCode::CountMismatch,
                     "service checkpoint: trailing bytes after payload");
    }
    return state;
}

/// Deterministic: no wall times, no RSS, no pids — two daemons that took
/// the same ingest path render the same manifest bytes.
std::string render_service_manifest(std::uint64_t fingerprint,
                                    const ServiceOptions& options,
                                    const ServiceState& state,
                                    std::string_view status) {
    std::ostringstream os;
    os << "# ytcdnd service manifest\n";
    os << "manifest_version 1\n";
    os << "fingerprint " << hex(fingerprint, 16) << '\n';
    os << "gap_s " << state.aggregates.gap() << '\n';
    os << "queue_capacity " << options.queue_capacity << '\n';
    os << "batch_records " << options.batch_records << '\n';
    for (const auto& entry : state.ledger) {
        os << "file " << entry.name << " size=" << entry.size << " crc="
           << hex(entry.crc, 8) << " records=" << entry.records
           << " batches=" << entry.batches << " shed=" << entry.shed_batches
           << " status=" << entry.status << '\n';
    }
    for (const auto& shed : state.shed_log) {
        os << "shed file=" << shed.file << " batch=" << shed.batch
           << " records=" << shed.records << '\n';
    }
    for (const auto& mutation : state.mutations) {
        os << "control " << mutation << '\n';
    }
    std::uint64_t shed_records = 0;
    for (const auto& shed : state.shed_log) shed_records += shed.records;
    os << "files_total " << state.files_ingested << '\n';
    os << "records_total " << state.records_ingested << '\n';
    os << "shed_batches_total " << state.shed_log.size() << '\n';
    os << "shed_records_total " << shed_records << '\n';
    os << "status " << status << '\n';
    return os.str();
}

/// One spool file read and decoded by the pipeline's produce step, until
/// its consume step folds it and frees the records.
struct ParsedFile {
    std::vector<capture::FlowRecord> records;
    std::uint32_t crc = 0;
    std::uint64_t size = 0;
    bool ok = false;
    std::string error;
};

}  // namespace

void request_stop() noexcept { g_stop.store(true); }
bool stop_requested() noexcept { return g_stop.load(); }
void clear_stop() noexcept { g_stop.store(false); }

Service::Service(ServiceOptions options)
    : options_(std::move(options)), fingerprint_(fingerprint_of(options_)) {}

util::Result<ServiceReport> Service::run() {
    namespace io = util::io;
    if (options_.spool_dir.empty() || options_.run_dir.empty()) {
        return Error(ErrorCode::InvalidArgument,
                     "ytcdnd: --spool and --out directories must be set");
    }
    if (options_.batch_records == 0) options_.batch_records = 1;
    auto& metrics = service_metrics();

    // Each directory is checked on its own: an unusable spool must not
    // pass as an empty one.
    for (const auto& [what, dir] :
         {std::pair{"spool", options_.spool_dir},
          std::pair{"run", options_.run_dir / "checkpoints"}}) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec) {
            return Error(ErrorCode::Io, std::string("ytcdnd: cannot create ") +
                                            what + " directory " + dir.string() +
                                            ": " + ec.message());
        }
    }

    ServiceReport report;
    report.manifest_path = options_.run_dir / "service_manifest.txt";
    report.aggregates_path = options_.run_dir / "aggregates.txt";
    const auto warn = [&](std::string message) {
        if (options_.log) *options_.log << "[ytcdnd] " << message << '\n';
        report.warnings.push_back(std::move(message));
    };
    const auto note = [&](const std::string& message) {
        if (options_.log) *options_.log << "[ytcdnd] " << message << '\n';
    };

    const std::filesystem::path checkpoint_file =
        study::checkpoint_path(options_.run_dir, study::Stage::Service);

    ServiceState state;
    state.aggregates = ServiceAggregates(options_.gap_T_s);
    if (options_.resume) {
        std::string warning;
        auto payload = study::load_or_quarantine_checkpoint(
            checkpoint_file, fingerprint_, study::Stage::Service, &warning);
        if (!warning.empty()) warn(warning);
        if (payload) {
            auto decoded = decode_state(*payload);
            if (decoded) {
                state = std::move(decoded).value();
                note("resumed from checkpoint: " +
                     std::to_string(state.ledger.size()) + " files, " +
                     std::to_string(state.records_ingested) + " records");
            } else {
                warn(std::string("service checkpoint payload rejected (") +
                     decoded.error().what() + "); starting cold");
            }
        }
    }

    const auto write_state = [&](std::string_view status) {
        auto written = study::write_checkpoint(checkpoint_file, fingerprint_,
                                               study::Stage::Service,
                                               encode_state(state));
        if (!written) {
            warn(std::string("service checkpoint not written: ") +
                 written.error().what());
        } else {
            metrics.checkpoints_written.inc();
        }
        auto manifest = io::write_file_atomic(
            report.manifest_path,
            render_service_manifest(fingerprint_, options_, state, status));
        if (!manifest) {
            warn(std::string("service manifest not written: ") +
                 manifest.error().what());
        }
    };

    // The vantage point's server->DC map: the first *.dcmap in the spool,
    // unless a resumed checkpoint already carries one.
    const auto try_install_dc_map = [&] {
        if (state.aggregates.has_map()) return;
        const auto maps = scan_dc_maps(options_.spool_dir);
        if (maps.empty()) return;
        auto bytes = io::read_file(maps.front().path);
        if (!bytes) {
            warn("dc map " + maps.front().name +
                 " unreadable: " + bytes.error().what());
            return;
        }
        try {
            std::istringstream is(std::move(bytes).value());
            state.aggregates.set_map(analysis::read_dc_map(is));
            note("dc map installed from " + maps.front().name);
        } catch (const std::exception& e) {
            warn("dc map " + maps.front().name + " rejected: " + e.what());
        }
    };
    try_install_dc_map();

    io::UnixServerSocket socket;
    if (!options_.socket_path.empty()) {
        auto listening = io::UnixServerSocket::listen(options_.socket_path);
        if (listening) {
            socket = std::move(listening).value();
            note("control socket listening at " +
                 options_.socket_path.string());
        } else {
            // Degraded, not fatal: the daemon still ingests; only live
            // control is unavailable.
            warn(std::string("control socket unavailable: ") +
                 listening.error().what());
        }
    }

    IngestQueue queue(options_.queue_capacity);
    std::size_t shed_seen = 0;        // queue.shed() entries already merged
    std::size_t files_since_ckpt = 0;
    util::ThreadPool pool(options_.threads);
    bool stop = false;

    // One control connection, one command, one reply. Chaos faults on the
    // socket ops surface as warnings and a dropped connection — the loop
    // itself must survive anything the plan injects.
    const auto serve_connection = [&](int fd) {
        auto line = io::read_line_fd(fd, 1000);
        if (!line) {
            metrics.control_errors.inc();
            warn(std::string("control read failed: ") + line.error().what());
            io::close_fd(fd);
            return;
        }
        metrics.control_commands.inc();
        const ControlCommand cmd = parse_control_line(line.value());
        std::string response;
        const auto mutate = [&](const std::string& text) {
            state.mutations.push_back(text);
            note("control mutation: " + text);
        };
        switch (cmd.verb) {
            case ControlVerb::Ping: response = "ok pong\n"; break;
            case ControlVerb::Stats:
                response = "ok\n" +
                           util::metrics::Registry::global().snapshot().render();
                break;
            case ControlVerb::Render:
                response = "ok\n" + state.aggregates.render();
                break;
            case ControlVerb::Snapshot:
                write_state("running");
                response = "ok checkpoint " + checkpoint_file.string() + "\n";
                break;
            case ControlVerb::Shutdown:
                stop = true;
                response = "ok shutting down\n";
                break;
            case ControlVerb::Faults: {
                std::string spec = cmd.args[0];
                std::replace(spec.begin(), spec.end(), ';', '\n');
                auto plan = io::FaultPlan::parse(spec);
                if (plan) {
                    io::set_fault_plan(std::make_shared<io::FaultPlan>(
                        std::move(plan).value()));
                    mutate("faults " + cmd.args[0]);
                    response = "ok faults installed\n";
                } else {
                    response = std::string("err ") + plan.error().what() + "\n";
                }
                break;
            }
            case ControlVerb::FaultsClear:
                io::set_fault_plan(nullptr);
                mutate("faults clear");
                response = "ok faults cleared\n";
                break;
            case ControlVerb::Unknown:
                metrics.control_errors.inc();
                response = "err " + cmd.error + "\n";
                break;
        }
        if (auto written = io::write_fd_all(fd, response); !written) {
            warn(std::string("control reply failed: ") +
                 written.error().what());
        }
        io::close_fd(fd);
    };

    // Waits up to `wait_ms` for control traffic, then serves everything
    // pending. The wait runs in slices of at most kStopCheckMs so that a
    // SIGTERM/SIGINT ends an idle tick promptly: neither the plain sleep nor
    // poll's EINTR retry returns early on the signal itself.
    const auto control_tick = [&](int wait_ms) {
        bool served = false;
        for (;;) {
            // Once a connection is served, drain the backlog without waiting.
            const int timeout = served ? 0 : std::min(wait_ms, kStopCheckMs);
            wait_ms -= timeout;
            if (!socket.listening()) {
                (void)io::poll_readable(-1, timeout);
            } else {
                auto client = socket.accept_ready(timeout);
                if (!client) {
                    warn(std::string("control accept failed: ") +
                         client.error().what());
                    return;
                }
                if (client.value() >= 0) {
                    serve_connection(client.value());
                    served = true;
                    if (stop) return;
                    continue;
                }
                if (served) return;
            }
            if (wait_ms <= 0 || stop_requested()) return;
        }
    };

    // Folds one popped batch into its own file's stream (a batch left over
    // from an earlier file's failed stage keeps its stream).
    const auto fold_batch = [&](const IngestBatch& batch) {
        const auto records = batch.view();
        state.aggregates.add(state.aggregates.stream(stream_of(batch.file)),
                             records);
        return records.size();
    };

    // Applies one file's already-parsed records through admission control
    // and the supervised aggregate stage, then updates ledger + metrics.
    const auto apply_file = [&](const SpoolFile& file, ParsedFile& parsed) {
        ProcessedFile entry;
        entry.name = file.name;
        entry.size = parsed.size;
        entry.crc = parsed.crc;
        if (!parsed.ok) {
            entry.status = "quarantined";
            metrics.files_quarantined.inc();
            auto quarantined = io::quarantine_file(file.path);
            warn("spool file " + file.name + " failed to parse (" +
                 parsed.error + "); " +
                 (quarantined ? "quarantined as " +
                                    quarantined.value().filename().string()
                              : std::string("quarantine also failed: ") +
                                    quarantined.error().what()));
            state.ledger.push_back(std::move(entry));
            state.files_ingested += 1;
            return;
        }

        // Admission control: batches beyond the queue's capacity are shed
        // deterministically (newest first), recorded, never silent. Batches
        // borrow slices of the decoded records; a file that fits in one
        // batch hands its whole vector over.
        const std::span<const capture::FlowRecord> all(parsed.records);
        const std::size_t per_batch = options_.batch_records;
        std::uint32_t index = 0;
        for (std::size_t off = 0; off < all.size(); off += per_batch, ++index) {
            IngestBatch batch;
            batch.file = file.name;
            batch.index = index;
            if (all.size() <= per_batch) {
                batch.records = std::move(parsed.records);
            } else {
                batch.slice =
                    all.subspan(off, std::min(per_batch, all.size() - off));
            }
            if (queue.push(std::move(batch))) {
                ++entry.batches;
            } else {
                ++entry.shed_batches;
            }
        }
        metrics.queue_peak.update_max(queue.peak_size());

        // Merge new shed decisions into the durable log + metrics.
        for (; shed_seen < queue.shed().size(); ++shed_seen) {
            const auto& shed = queue.shed()[shed_seen];
            metrics.batches_shed.inc();
            metrics.records_shed.inc(shed.records);
            warn("shed file=" + shed.file + " batch=" +
                 std::to_string(shed.batch) + " records=" +
                 std::to_string(shed.records));
            state.shed_log.push_back(shed);
        }

        // The aggregate stage runs under the same watchdog ladder as the
        // study pipeline: a wedged or throwing stage is retried with
        // backoff, and a soft deadline overrun is reported, never fatal.
        std::uint64_t applied = 0;
        const study::StageOutcome outcome = study::run_supervised(
            "aggregate " + file.name, options_.policy,
            [&] {
                while (!queue.empty()) applied += fold_batch(queue.pop());
            },
            options_.log);
        // Whatever a failed stage left queued is folded later, after this
        // file's records are freed.
        queue.own_slices();
        if (outcome.deadline_exceeded) {
            warn("aggregate stage for " + file.name +
                 " exceeded its deadline");
        }
        if (!outcome.completed) {
            warn("aggregate stage for " + file.name + " failed after " +
                 std::to_string(outcome.attempts) +
                 " attempts: " + outcome.error);
            entry.status = "degraded";
        } else {
            entry.status = "ok";
        }
        entry.records = applied;
        state.ledger.push_back(std::move(entry));
        state.files_ingested += 1;
        state.records_ingested += applied;
        metrics.files_ingested.inc();
        metrics.records_ingested.inc(applied);
    };

    const auto ingest_new_files = [&]() -> std::size_t {
        auto files = scan_spool(options_.spool_dir);
        std::unordered_set<std::string_view> done;
        done.reserve(state.ledger.size());
        for (const auto& entry : state.ledger) done.insert(entry.name);
        files.erase(std::remove_if(files.begin(), files.end(),
                                   [&](const SpoolFile& f) {
                                       return done.contains(f.name);
                                   }),
                    files.end());
        if (files.empty()) return 0;
        try_install_dc_map();

        // A bounded decode-ahead pipeline on the deterministic pool: each
        // file is read and decoded completely (under the supervised retry
        // ladder) at most pipeline_window() files ahead, then applied in
        // name order and freed, so aggregates are byte-identical at any
        // pool size and memory holds a window of files, not the backlog.
        // A file decoded but not applied when a stop arrives stays out of
        // the ledger and is replayed.
        std::vector<ParsedFile> parsed(files.size());
        pool.run_pipelined(
            files.size(),
            [&](std::size_t i) {
                const SpoolFile& file = files[i];
                ParsedFile& out = parsed[i];
                const study::StageOutcome outcome = study::run_supervised(
                    "parse " + file.name, options_.policy,
                    [&] {
                        auto bytes = io::read_file(file.path);
                        if (!bytes) throw bytes.error();
                        out.size = bytes.value().size();
                        out.crc = util::crc32(bytes.value());
                        auto records = decode_spool_bytes(
                            file.path, std::move(bytes).value());
                        if (!records) throw records.error();
                        out.records = std::move(records).value();
                    },
                    nullptr);
                out.ok = outcome.completed;
                out.error = outcome.error;
            },
            [&](std::size_t i) {
                apply_file(files[i], parsed[i]);
                parsed[i] = {};
                ++files_since_ckpt;
                if (options_.checkpoint_every != 0 &&
                    files_since_ckpt >= options_.checkpoint_every) {
                    write_state("running");
                    files_since_ckpt = 0;
                }
                return !stop_requested();  // quiesce promptly mid-scan
            });
        return files.size();
    };

    write_state("running");
    note("ingest loop started (spool " + options_.spool_dir.string() + ")");

    // Work-conserving: a round waits its tick only after a scan that found
    // nothing, so a spool with files is drained back to back (a `--once`
    // pass never sleeps) while an idle daemon still paces its scans.
    bool idle = false;
    while (!stop && !stop_requested()) {
        metrics.ticks.inc();
        control_tick(idle ? options_.tick_ms : 0);
        if (stop || stop_requested()) break;
        const std::size_t ingested = ingest_new_files();
        if (options_.once && ingested == 0) break;
        idle = ingested == 0;
    }

    // Graceful quiesce: no new admissions; drain whatever is queued (only
    // non-empty when a stop interrupted apply_file mid-ladder), flush the
    // checkpoint, render the final aggregates.
    while (!queue.empty()) {
        const std::size_t folded = fold_batch(queue.pop());
        state.records_ingested += folded;
        metrics.records_ingested.inc(folded);
    }
    write_state("shutdown");
    if (auto rendered = io::write_file_atomic(report.aggregates_path,
                                              state.aggregates.render());
        !rendered) {
        warn(std::string("aggregates.txt not written: ") +
             rendered.error().what());
    }
    socket.close();

    report.files_ingested = state.files_ingested;
    report.records_ingested = state.records_ingested;
    report.batches_shed = state.shed_log.size();
    for (const auto& shed : state.shed_log) {
        report.records_shed += shed.records;
    }
    report.clean_shutdown = true;
    note("shutdown complete: " + std::to_string(report.files_ingested) +
         " files, " + std::to_string(report.records_ingested) + " records");
    return report;
}

}  // namespace ytcdn::service
