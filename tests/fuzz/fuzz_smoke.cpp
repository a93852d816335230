// Deterministic parser-fuzz smoke test (ctest: fuzz_smoke).
//
// Contract under test: every external input surface — YFL2 binary flow
// logs, the simulated week (its raw Simulate-stage payload, read against
// the week's logs, and the on-disk YCK1 quarantine path), YTR1 traces, the fault-schedule DSL, and CLI
// argument vectors — either succeeds or
// reports a typed ytcdn::Error. Nothing may crash, abort, loop, or trip a
// sanitizer, no matter how the bytes are damaged.
//
// All randomness flows from kMasterSeed through sim::Rng, so a failure
// report's (surface, iteration) pair replays bit-for-bit. Intended to run
// under ASan+UBSan in CI (cmake -DYTCDN_SANITIZE=ON); argv[1] optionally
// names a corpus directory of crafted corrupt fixtures that is swept
// through every parser regardless of the fixture's native format.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "capture/binary_log.hpp"
#include "sim/fault_injector.hpp"
#include "sim/random.hpp"
#include "sim/tracer.hpp"
#include "study/checkpoint.hpp"
#include "study/study_run.hpp"
#include "util/args.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

#include "fuzz_mutators.hpp"

namespace capture = ytcdn::capture;
namespace fuzz = ytcdn::fuzz;
namespace sim = ytcdn::sim;
namespace study = ytcdn::study;
namespace util = ytcdn::util;

namespace {

constexpr std::uint64_t kMasterSeed = 0x5946555A'5A323031ull;  // "YFUZZ201"

struct Tally {
    std::uint64_t iterations = 0;
    std::uint64_t accepted = 0;   // parser succeeded on the mutated input
    std::uint64_t rejected = 0;   // parser returned a typed error
    std::vector<std::string> failures;

    void fail(const std::string& surface, std::uint64_t iteration,
              const std::string& what) {
        failures.push_back(surface + " iteration " + std::to_string(iteration) +
                           ": " + what);
    }
};

/// Runs one fuzz case. `parse` must consume the input through a Result
/// entry point and return it: ok ⇒ accepted, error ⇒ must render a
/// non-empty message. Any exception escaping the Result layer is a
/// contract violation and is recorded as a failure.
template <typename Parse>
void run_case(Tally& tally, const std::string& surface, std::uint64_t iteration,
              Parse&& parse) {
    ++tally.iterations;
    try {
        util::Result<void> outcome = parse();
        if (outcome.ok()) {
            ++tally.accepted;
        } else if (std::string(outcome.error().what()).empty()) {
            tally.fail(surface, iteration, "typed error with empty message");
        } else {
            ++tally.rejected;
        }
    } catch (const std::exception& e) {
        tally.fail(surface, iteration,
                   std::string("exception escaped Result layer: ") + e.what());
    } catch (...) {  // ytcdn-lint: allow(catch-all) — the harness must report, not die
        tally.fail(surface, iteration, "non-std exception escaped");
    }
}

util::Result<void> drop(util::Result<std::vector<capture::FlowRecord>> r) {
    if (!r.ok()) return std::move(r).error();
    return {};
}

// --- surfaces -------------------------------------------------------------

void fuzz_binary_log(Tally& tally, const std::string& valid, sim::Rng rng,
                     std::uint64_t iterations) {
    const std::string surface = "binary_log_v2";
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto bytes = fuzz::mutate_bytes_n(valid, rng);
        run_case(tally, surface, i, [&] {
            std::istringstream in(bytes);
            return drop(capture::read_binary_log_result(in));
        });
    }
    // Unstructured garbage, including the empty input.
    for (std::uint64_t i = 0; i < iterations / 4; ++i) {
        const auto bytes = fuzz::garbage_bytes(512, rng);
        run_case(tally, surface + "_garbage", i, [&] {
            std::istringstream in(bytes);
            return drop(capture::read_binary_log_result(in));
        });
    }
}

/// Writes `bytes` to `path` and drains a FlowLogReader over them: the
/// incremental reader honors the same crash-free typed-error contract as
/// the batch parser, through its real file-I/O path.
util::Result<void> drain_streaming_log(const std::filesystem::path& path,
                                       const std::string& bytes) {
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    auto reader = capture::FlowLogReader::open(path, 64);
    if (!reader.ok()) return reader.error();
    std::vector<capture::FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        if (!n.ok()) return n.error();
        if (n.value() == 0) return {};
    }
}

void fuzz_streaming_log(Tally& tally, const std::string& valid, sim::Rng rng,
                        std::uint64_t iterations) {
    const auto dir =
        std::filesystem::temp_directory_path() / "ytcdn_fuzz_streaming";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto path = dir / "mutated.yfl";
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto bytes = fuzz::mutate_bytes_n(valid, rng);
        run_case(tally, "streaming_log", i,
                 [&] { return drain_streaming_log(path, bytes); });
    }
    for (std::uint64_t i = 0; i < iterations / 4; ++i) {
        const auto bytes = fuzz::garbage_bytes(512, rng);
        run_case(tally, "streaming_log_garbage", i,
                 [&] { return drain_streaming_log(path, bytes); });
    }
    std::filesystem::remove_all(dir);
}

/// Where main() writes the seed week's flow logs, which the Simulate
/// payload names and decode_week reads.
const std::filesystem::path& week_log_dir() {
    static const auto dir =
        std::filesystem::temp_directory_path() / "ytcdn_fuzz_week";
    return dir;
}

util::Result<void> decode_week(std::string_view payload) {
    auto r = study::decode_traces(payload, week_log_dir());
    if (!r.ok()) return std::move(r).error();
    return {};
}

/// The raw Simulate payload, with no frame CRC in front of it: every flip
/// reaches the decoder's bound checks.
void fuzz_simulate_payload(Tally& tally, const std::string& valid, sim::Rng rng,
                           std::uint64_t iterations) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto bytes = fuzz::mutate_bytes_n(valid, rng);
        run_case(tally, "simulate_payload", i, [&] { return decode_week(bytes); });
    }
}

/// Whole Simulate-stage frames through the on-disk path a cache or resume
/// takes: load_or_quarantine_checkpoint, then the payload decoder.
void fuzz_simulate_quarantine(Tally& tally, const std::string& week,
                              std::uint64_t key, sim::Rng rng,
                              std::uint64_t iterations) {
    const auto dir =
        std::filesystem::temp_directory_path() / "ytcdn_fuzz_quarantine";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto path = dir / "simulate.yck";
    const auto corrupt = path.string() + ".corrupt.1";
    if (!study::write_checkpoint(path, key, study::Stage::Simulate, week)) {
        tally.fail("simulate_quarantine", 0, "could not write the seed frame");
        return;
    }
    std::ostringstream frame;
    frame << std::ifstream(path, std::ios::binary).rdbuf();
    const std::string valid = frame.str();
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto bytes = fuzz::mutate_bytes_n(valid, rng);
        ++tally.iterations;
        try {
            {
                std::ofstream os(path, std::ios::binary | std::ios::trunc);
                os.write(bytes.data(),
                         static_cast<std::streamsize>(bytes.size()));
            }
            std::string warning;
            const auto loaded = study::load_or_quarantine_checkpoint(
                path, key, study::Stage::Simulate, &warning);
            // A damaged file must be gone (quarantined), and the miss must
            // come with a one-line explanation; a load that still succeeds
            // (mutation hit slack bytes) leaves the file in place and its
            // payload must decode or fail typed.
            if (loaded.has_value()) {
                if (decode_week(*loaded).ok()) {
                    ++tally.accepted;
                } else {
                    ++tally.rejected;
                }
            } else if (warning.empty() && std::filesystem::exists(path)) {
                tally.fail("simulate_quarantine", i,
                           "silent miss left the damaged file in place");
            } else {
                ++tally.rejected;
            }
            std::filesystem::remove(path);
            std::filesystem::remove(corrupt);
        } catch (const std::exception& e) {
            tally.fail("simulate_quarantine", i,
                       std::string("exception escaped: ") + e.what());
        }
    }
    std::filesystem::remove_all(dir);
}

void fuzz_trace_log(Tally& tally, const std::string& valid, sim::Rng rng,
                    std::uint64_t iterations) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
        const auto bytes = fuzz::mutate_bytes_n(valid, rng);
        run_case(tally, "trace_log", i, [&]() -> util::Result<void> {
            auto r = sim::read_trace_bytes(bytes);
            if (!r.ok()) return std::move(r).error();
            // A trace that still parses must survive the downstream
            // consumers (timelines, invariant validation, JSONL render)
            // without crashing — damage may reach them via slack bytes.
            (void)sim::validate_trace(r.value(), 3);
            (void)sim::render_trace_jsonl(r.value());
            return {};
        });
    }
    for (std::uint64_t i = 0; i < iterations / 4; ++i) {
        const auto bytes = fuzz::garbage_bytes(512, rng);
        run_case(tally, "trace_log_garbage", i, [&]() -> util::Result<void> {
            auto r = sim::read_trace_bytes(bytes);
            if (!r.ok()) return std::move(r).error();
            return {};
        });
    }
}

void fuzz_fault_schedule(Tally& tally, sim::Rng rng, std::uint64_t iterations) {
    const std::string valid =
        "# chaos drill\n"
        "@0 dc-down frankfurt\n"
        "@2d12h server-drain lhr07s14\n"
        "@90m resolver-stale vp-trichy\n"
        "@3600 dc-up frankfurt\n";
    std::string seedling = valid;
    for (std::uint64_t i = 0; i < iterations; ++i) {
        // Walk a mutation chain but restart from the valid schedule often
        // enough to keep inputs near the grammar (where the bugs live).
        seedling = (i % 8 == 0) ? valid : seedling;
        seedling = fuzz::mutate_text(seedling, rng);
        const std::string input = seedling;
        run_case(tally, "fault_schedule", i, [&]() -> util::Result<void> {
            auto r = sim::FaultSchedule::parse_result(input);
            if (!r.ok()) return std::move(r).error();
            return {};
        });
    }
    for (std::uint64_t i = 0; i < iterations / 4; ++i) {
        const auto input = fuzz::garbage_bytes(256, rng);
        run_case(tally, "fault_schedule_garbage", i, [&]() -> util::Result<void> {
            auto r = sim::FaultSchedule::parse_result(input);
            if (!r.ok()) return std::move(r).error();
            return {};
        });
    }
}

void fuzz_cli_args(Tally& tally, sim::Rng rng, std::uint64_t iterations) {
    // ArgParser predates the Result layer and documents throwing
    // std::invalid_argument; the fuzz contract for it is "typed exception
    // or success, never crash/UB".
    static constexpr const char* kTokens[] = {
        "run",      "--seed",   "--scale", "0.01",   "--faults", "--",
        "-x",       "--seed=3", "",        "--scale", "1e999",   "nope",
        "--threads", "@0 dc_down x", "--verbose", "--seed", "\xFF\xFE",
    };
    constexpr std::size_t kNumTokens = sizeof(kTokens) / sizeof(kTokens[0]);
    for (std::uint64_t i = 0; i < iterations; ++i) {
        std::vector<std::string> storage;
        storage.emplace_back("ytcdn");
        const auto n = rng.uniform_index(8);
        for (std::uint64_t k = 0; k < n; ++k) {
            std::string tok = kTokens[rng.uniform_index(kNumTokens)];
            if (rng.bernoulli(0.3)) tok = fuzz::mutate_text(tok, rng);
            storage.push_back(std::move(tok));
        }
        std::vector<const char*> argv;
        argv.reserve(storage.size());
        for (const auto& s : storage) argv.push_back(s.c_str());
        ++tally.iterations;
        try {
            const util::ArgParser args(static_cast<int>(argv.size()),
                                       argv.data(), {"verbose"});
            // Exercise the typed getters too — stod/stol edge cases.
            (void)args.get_double_or("scale", 1.0);
            (void)args.get_long_or("seed", 0);
            (void)args.has_flag("verbose");
            ++tally.accepted;
        } catch (const std::exception&) {
            ++tally.rejected;  // typed rejection is the contract
        } catch (...) {  // ytcdn-lint: allow(catch-all) — the harness must report, not die
            tally.fail("cli_args", i, "non-std exception escaped ArgParser");
        }
    }
}

void sweep_corpus(Tally& tally, const std::filesystem::path& dir) {
    if (!std::filesystem::is_directory(dir)) {
        std::cerr << "fuzz_smoke: no corpus directory at " << dir
                  << " — skipping sweep\n";
        return;
    }
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.is_regular_file()) files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    const auto scratch =
        std::filesystem::temp_directory_path() / "ytcdn_fuzz_corpus_scratch";
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);
    std::uint64_t i = 0;
    for (const auto& file : files) {
        std::ifstream is(file, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        const std::string bytes = buf.str();
        // Cross-format confusion on purpose: every fixture is fed to every
        // parser; a checkpoint frame must not crash the flow-log reader.
        run_case(tally, "corpus:" + file.filename().string() + ":binary_log", i,
                 [&] {
                     std::istringstream in(bytes);
                     return drop(capture::read_binary_log_result(in));
                 });
        run_case(tally, "corpus:" + file.filename().string() + ":simulate_payload",
                 i, [&] { return decode_week(bytes); });
        // As a Simulate-stage frame, keyed by the key it claims (bytes 8..15)
        // so damage past the key check reaches the CRC and the payload.
        run_case(tally, "corpus:" + file.filename().string() + ":checkpoint", i,
                 [&]() -> util::Result<void> {
                     util::ByteReader header(bytes);
                     header.take<std::uint64_t>();
                     const auto claimed = header.take<std::uint64_t>();
                     const auto path = scratch / "fixture.yck";
                     {
                         std::ofstream os(path, std::ios::binary | std::ios::trunc);
                         os.write(bytes.data(),
                                  static_cast<std::streamsize>(bytes.size()));
                     }
                     auto r = study::load_checkpoint(path, claimed,
                                                     study::Stage::Simulate);
                     if (!r.ok()) return std::move(r).error();
                     return decode_week(r.value());
                 });
        run_case(tally, "corpus:" + file.filename().string() + ":schedule", i,
                 [&]() -> util::Result<void> {
                     auto r = sim::FaultSchedule::parse_result(bytes);
                     if (!r.ok()) return std::move(r).error();
                     return {};
                 });
        run_case(tally, "corpus:" + file.filename().string() + ":trace", i,
                 [&]() -> util::Result<void> {
                     auto r = sim::read_trace_bytes(bytes);
                     if (!r.ok()) return std::move(r).error();
                     (void)sim::validate_trace(r.value(), 3);
                     return {};
                 });
        run_case(tally, "corpus:" + file.filename().string() + ":streaming_log",
                 i, [&] {
                     return drain_streaming_log(scratch / "fixture.yfl", bytes);
                 });
        ++i;
    }
    std::filesystem::remove_all(scratch);
    std::cout << "fuzz_smoke: swept " << files.size() << " corpus fixtures\n";
}

std::vector<capture::FlowRecord> seed_records(std::size_t n, sim::Rng& rng) {
    std::vector<capture::FlowRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        capture::FlowRecord r;
        r.client_ip = ytcdn::net::IpAddress{
            static_cast<std::uint32_t>(rng.engine()())};
        r.server_ip = ytcdn::net::IpAddress{
            static_cast<std::uint32_t>(rng.engine()())};
        r.start = rng.uniform(0.0, 604800.0);
        r.end = r.start + rng.uniform(0.0, 500.0);
        r.bytes = rng.engine()() % (1ull << 34);
        r.video = ytcdn::cdn::VideoId{rng.engine()()};
        r.resolution = ytcdn::cdn::kAllResolutions[rng.uniform_index(5)];
        out.push_back(r);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    const sim::Rng master(kMasterSeed);
    Tally tally;

    // Valid seed artifacts the mutators damage. Small enough that a parse
    // attempt is microseconds; large enough to span multiple CRC blocks'
    // worth of structure in every format.
    auto record_rng = master.fork("records");
    const auto records = seed_records(300, record_rng);
    std::ostringstream v2;
    capture::write_binary_log(v2, records);

    study::StudyConfig cfg;
    cfg.scale = 0.004;
    sim::Tracer tracer;
    const auto run = study::run_study(cfg, &tracer);
    const study::EncodedWeek encoded = study::encode_traces(run.traces);
    const std::string& week = encoded.payload;
    std::filesystem::remove_all(week_log_dir());
    for (std::size_t i = 0; i < encoded.logs.size(); ++i) {
        const auto path = study::log_path(week_log_dir(), run.traces.datasets[i].name);
        if (!util::io::write_file_atomic(path, encoded.logs[i])) {
            tally.fail("setup", i, "could not write the seed week's logs");
        }
    }
    const std::string trace_bytes = sim::write_trace_bytes(tracer.log());

    fuzz_binary_log(tally, v2.str(), master.fork("v2"), 1200);
    fuzz_streaming_log(tally, v2.str(), master.fork("streaming"), 300);
    fuzz_simulate_payload(tally, week, master.fork("snap"), 800);
    fuzz_simulate_quarantine(tally, week, study::config_fingerprint(cfg),
                             master.fork("quarantine"), 60);
    fuzz_trace_log(tally, trace_bytes, master.fork("trace"), 800);
    fuzz_fault_schedule(tally, master.fork("schedule"), 1200);
    fuzz_cli_args(tally, master.fork("args"), 600);
    if (argc > 1) sweep_corpus(tally, argv[1]);
    std::filesystem::remove_all(week_log_dir());

    std::cout << "fuzz_smoke: " << tally.iterations << " iterations, "
              << tally.accepted << " accepted, " << tally.rejected
              << " cleanly rejected, " << tally.failures.size()
              << " contract violations (seed 0x" << std::hex << kMasterSeed
              << std::dec << ")\n";
    if (!tally.failures.empty()) {
        const std::size_t shown = std::min<std::size_t>(tally.failures.size(), 20);
        for (std::size_t i = 0; i < shown; ++i) {
            std::cerr << "FAIL: " << tally.failures[i] << "\n";
        }
        if (shown < tally.failures.size()) {
            std::cerr << "... and " << tally.failures.size() - shown << " more\n";
        }
        return 1;
    }
    return 0;
}
