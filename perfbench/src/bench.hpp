#pragma once

// Shared plumbing of the repository benchmark: options, the per-run result
// (metrics, correctness checks, attempted/failed counts), repetition and
// statistics helpers, and the span recorder of the traced run.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/dc_map.hpp"
#include "study/config.hpp"
#include "study/deployment.hpp"
#include "util/parallel.hpp"

namespace perfbench {

/// Worker threads every workload uses, capped at the host's CPU count so the
/// pool never oversubscribes the machine.
inline constexpr std::size_t kWorkers = 4;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Test-sized inputs (a few seconds per workload) instead of the
    /// benchmark's real sizes.
    bool tiny = false;
    std::filesystem::path work_dir;
    /// Where the traced run writes its last repetition's spans (JSON lines);
    /// empty = not written.
    std::filesystem::path spans_out;
    std::string git_sha = "unknown";
    std::string git_dirty = "unknown";
    std::size_t workers = kWorkers;
};

/// Everything one workload run reports. Checks print as they are made; a
/// failed check makes the run incorrect, and an incorrect run counts every
/// attempted unit as failed.
class Result {
public:
    void metric(std::string name, double value, std::string unit);
    void check(std::string_view name, bool ok, std::string_view detail = {});
    /// Workload sizes and other facts that go into the provenance block.
    void size(std::string name, double value);
    /// Informational line (output digests): printed, never judged.
    static void info(std::string_view key, std::string_view value);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    [[nodiscard]] bool correct() const noexcept { return correct_; }
    [[nodiscard]] const std::map<std::string, double>& sizes() const noexcept {
        return sizes_;
    }

    /// Prints the provenance line, one line per metric, and the closing
    /// `result {...}` JSON line.
    void print(std::ostream& os, const Options& options) const;

private:
    struct Metric {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics_;
    std::map<std::string, double> sizes_;
    bool correct_ = true;
};

/// Monotonic seconds (std::chrono::steady_clock).
[[nodiscard]] double now_s();

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Calls `rep` (which returns the seconds it measured) until `seconds` have
/// passed since the call and at least `min_reps` repetitions ran. Returns
/// the per-repetition measurements.
[[nodiscard]] std::vector<double> repeat_for(double seconds, std::size_t min_reps,
                                             const std::function<double()>& rep);

/// Prints every repetition's wall as the repetition_walls_s info line.
void print_walls(const std::vector<double>& walls);

/// The process's getrusage(RUSAGE_SELF) peak resident set, MiB.
[[nodiscard]] double peak_rss_mib();

/// A counter's total in the global util::metrics registry (0 when it was
/// never registered). Workloads reset the registry before each repetition.
[[nodiscard]] std::uint64_t registry_counter(std::string_view name);

/// Deletes and recreates `dir`.
void fresh_dir(const std::filesystem::path& dir);

/// 64-bit FNV-1a of a file's bytes as 16 hex digits ("missing" if unreadable).
[[nodiscard]] std::string file_digest(const std::filesystem::path& path);

/// The study configuration every simulating workload starts from.
[[nodiscard]] ytcdn::study::StudyConfig base_config(const Options& options,
                                                    double scale);

/// Sessions generated per unit of StudyConfig::scale over the simulated week
/// (the same calibration bench_scale_10m uses).
inline constexpr double kSessionsPerUnitScale = 1'947'062.0;

/// In-memory span recorder for the traced run, used only on the calling
/// thread. A span's self time is its duration minus its children's; work
/// measured elsewhere (callbacks, the supervisor's own stage clock) enters
/// as a child of known duration.
class SpanTrace {
public:
    class Scope {
    public:
        Scope(SpanTrace& trace, std::string_view name);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanTrace* trace_;
        std::size_t index_;
    };

    [[nodiscard]] Scope span(std::string_view name) { return Scope(*this, name); }
    /// Adds a closed child of the innermost open span (or a root span).
    void add_child(std::string_view name, double seconds);

    /// Summed duration of every span with this name.
    [[nodiscard]] double total_s(std::string_view name) const;
    /// Summed self time of every span.
    [[nodiscard]] double self_sum_s() const;

    void write_jsonl(std::ostream& os) const;

private:
    struct Span {
        std::string name;
        double start = 0.0;  // seconds since the trace began; -1 = measured elsewhere
        double duration = 0.0;
        double children = 0.0;
        int parent = -1;
    };
    std::vector<Span> spans_;
    int open_ = -1;
    double origin_ = now_s();
};

/// Per-name medians over repetitions: each traced repetition records one
/// sample per layer metric.
class LayerSamples {
public:
    void add(const std::string& name, double value, std::string unit);
    /// Reports the median of every metric's samples.
    void report(Result& result) const;

private:
    std::map<std::string, std::pair<std::vector<double>, std::string>> samples_;
};

/// The traced run's repetition loop. Alternates an untraced and a traced
/// repetition for `options.seconds` (at least two pairs), swapping which of
/// the two goes first in every other pair; each returns the wall time of its
/// measured work. Adds trace.overhead_share (traced minus untraced median
/// wall, as a share of untraced) and trace.coverage (span self time over
/// traced wall) to `layers`, writes the last traced repetition's spans to
/// options.spans_out, and returns the untraced walls.
[[nodiscard]] std::vector<double> traced_pairs(
    const Options& options, const std::function<double()>& untraced,
    const std::function<double(SpanTrace&)>& traced, LayerSamples& layers);

/// What scale_stream and full_study count as set-up: the deployment plus
/// its ground-truth server->DC maps.
struct Deployment {
    std::unique_ptr<ytcdn::study::StudyDeployment> world;
    std::vector<ytcdn::analysis::ServerDcMap> maps;
};

/// Builds the deployment and its maps (the maps on `pool`, as
/// run_scale_study does), appends the time taken to `setup_walls` and, when
/// `layers` is non-null, records the split into study.deployment_s and
/// geoloc.dc_map_s.
[[nodiscard]] Deployment build_setup(const ytcdn::study::StudyConfig& config,
                                     ytcdn::util::ThreadPool& pool,
                                     std::vector<double>& setup_walls,
                                     LayerSamples* layers);

/// A batch of build_setup calls (30; 2 with --tiny), discarding the builds.
/// Workloads take one batch before their repetitions and one after, so a
/// slow phase of a shared host weighs on setup_s less than it would on one
/// batch; none are taken between repetitions, where they would move the
/// heap's high-water mark.
void sample_setup(const Options& options, const ytcdn::study::StudyConfig& config,
                  ytcdn::util::ThreadPool& pool, std::vector<double>& setup_walls,
                  LayerSamples* layers);

// --- workloads -----------------------------------------------------------

void run_scale_stream(const Options& options, Result& result);
void run_full_study(const Options& options, Result& result);
void run_serve_rotated(const Options& options, Result& result);

/// ns-per-call probes of the samplers and the DPI classifier that hide
/// inside the simulation's self time (traced runs only).
void run_probes(const Options& options,
                const ytcdn::study::StudyDeployment& deployment, Result& result,
                LayerSamples& layers);

}  // namespace perfbench
