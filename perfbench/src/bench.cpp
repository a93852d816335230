#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <ostream>
#include <sstream>

#include "sim/random.hpp"
#include "study/dc_map_builder.hpp"
#include "util/metrics.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

}  // namespace

void Result::metric(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) {
        check("finite " + name, false, "measured a non-finite value");
        value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Result::check(std::string_view name, bool ok, std::string_view detail) {
    std::cout << "check " << name << (ok ? " ok" : " FAIL");
    if (!detail.empty()) std::cout << " (" << detail << ')';
    std::cout << '\n';
    if (!ok) correct_ = false;
}

void Result::size(std::string name, double value) { sizes_[std::move(name)] = value; }

void Result::info(std::string_view key, std::string_view value) {
    std::cout << "info " << key << ' ' << value << '\n';
}

void Result::print(std::ostream& os, const Options& options) const {
    std::uint64_t attempted_n = std::max<std::uint64_t>(attempted, 1);
    std::uint64_t failed_n = correct_ ? std::min(failed, attempted_n) : attempted_n;

    os << "provenance {\"workload\": " << json_string(options.workload)
       << ", \"trace\": " << (options.trace ? 1 : 0)
       << ", \"seed\": " << options.seed
       << ", \"seconds\": " << json_number(options.seconds)
       << ", \"workers\": " << options.workers
       << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
       << ", \"cpu_model\": " << json_string(cpu_model())
       << ", \"compiler\": " << json_string(compiler())
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << json_string(options.git_sha)
       << ", \"git_dirty\": " << json_string(options.git_dirty)
       << ", \"sizes\": {";
    const char* sep = "";
    for (const auto& [name, value] : sizes_) {
        os << sep << json_string(name) << ": " << json_number(value);
        sep = ", ";
    }
    os << "}}\n";

    auto all = metrics_;
    all.push_back({"failed_share",
                   static_cast<double>(failed_n) / static_cast<double>(attempted_n),
                   "ratio"});
    for (const auto& m : all) {
        os << "metric " << m.name << ' ' << json_number(m.value) << ' ' << m.unit
           << '\n';
    }
    os << "result {\"correct\": " << (correct_ ? "true" : "false")
       << ", \"attempted\": " << attempted_n << ", \"failed\": " << failed_n
       << ", \"metrics\": {";
    sep = "";
    for (const auto& m : all) {
        os << sep << json_string(m.name) << ": {\"value\": " << json_number(m.value)
           << ", \"unit\": " << json_string(m.unit) << '}';
        sep = ", ";
    }
    os << "}}\n";
}

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    if (q == 0.5) {
        const std::size_t mid = values.size() / 2;
        return values.size() % 2 == 1 ? values[mid]
                                      : 0.5 * (values[mid - 1] + values[mid]);
    }
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(index, values.size() - 1)];
}

std::vector<double> repeat_for(double seconds, std::size_t min_reps,
                               const std::function<double()>& rep) {
    std::vector<double> out;
    const double start = now_s();
    while (out.size() < min_reps || now_s() - start < seconds) out.push_back(rep());
    return out;
}

void print_walls(const std::vector<double>& walls) {
    std::ostringstream os;
    for (const double w : walls) os << json_number(w) << ' ';
    Result::info("repetition_walls_s", os.str());
}

double peak_rss_mib() {
    struct rusage self {};
    if (::getrusage(RUSAGE_SELF, &self) != 0) return 0.0;
    return static_cast<double>(self.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t registry_counter(std::string_view name) {
    const auto snapshot = ytcdn::util::metrics::Registry::global().snapshot();
    for (const auto& entry : snapshot.entries) {
        if (entry.name == name) return entry.value;
    }
    return 0;
}

void fresh_dir(const std::filesystem::path& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

std::string file_digest(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return "missing";
    const std::string bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0')
       << ytcdn::sim::hash_string(bytes);
    return os.str();
}

ytcdn::study::StudyConfig base_config(const Options& options, double scale) {
    ytcdn::study::StudyConfig config;
    config.seed = options.seed;
    config.scale = scale;
    config.threads = static_cast<int>(options.workers);
    return config;
}

// --- SpanTrace ----------------------------------------------------------------

SpanTrace::Scope::Scope(SpanTrace& trace, std::string_view name)
    : trace_(&trace), index_(trace.spans_.size()) {
    trace.spans_.push_back({std::string(name), now_s() - trace.origin_, 0.0, 0.0,
                            trace.open_});
    trace.open_ = static_cast<int>(index_);
}

SpanTrace::Scope::~Scope() {
    Span& span = trace_->spans_[index_];
    span.duration = now_s() - trace_->origin_ - span.start;
    if (span.parent >= 0) {
        trace_->spans_[static_cast<std::size_t>(span.parent)].children += span.duration;
    }
    trace_->open_ = span.parent;
}

void SpanTrace::add_child(std::string_view name, double seconds) {
    spans_.push_back({std::string(name), -1.0, seconds, 0.0, open_});
    if (open_ >= 0) spans_[static_cast<std::size_t>(open_)].children += seconds;
}

double SpanTrace::total_s(std::string_view name) const {
    double total = 0.0;
    for (const auto& span : spans_) {
        if (span.name == name) total += span.duration;
    }
    return total;
}

double SpanTrace::self_sum_s() const {
    double total = 0.0;
    for (const auto& span : spans_) total += span.duration - span.children;
    return total;
}

void SpanTrace::write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << "{\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"name\": " << json_string(s.name)
           << ", \"start_s\": " << json_number(s.start)
           << ", \"duration_s\": " << json_number(s.duration)
           << ", \"self_s\": " << json_number(s.duration - s.children) << "}\n";
    }
}

// --- LayerSamples -------------------------------------------------------------

void LayerSamples::add(const std::string& name, double value, std::string unit) {
    auto& entry = samples_[name];
    entry.first.push_back(value);
    entry.second = std::move(unit);
}

void LayerSamples::report(Result& result) const {
    for (const auto& [name, entry] : samples_) {
        result.metric(name, median(entry.first), entry.second);
    }
}

std::vector<double> traced_pairs(const Options& options,
                                 const std::function<double()>& untraced,
                                 const std::function<double(SpanTrace&)>& traced,
                                 LayerSamples& layers) {
    std::vector<double> untraced_walls;
    std::vector<double> traced_walls;
    std::vector<double> coverage;
    SpanTrace trace;
    const auto traced_rep = [&] {
        trace = SpanTrace();
        const double wall = traced(trace);
        traced_walls.push_back(wall);
        coverage.push_back(trace.self_sum_s() / wall);
    };
    (void)repeat_for(options.seconds, 2, [&] {
        const bool traced_first = traced_walls.size() % 2 == 1;
        if (traced_first) traced_rep();
        untraced_walls.push_back(untraced());
        if (!traced_first) traced_rep();
        return 0.0;
    });
    const double base = median(untraced_walls);
    layers.add("trace.overhead_share", (median(traced_walls) - base) / base, "ratio");
    layers.add("trace.coverage", median(coverage), "ratio");
    if (!options.spans_out.empty()) {
        std::ofstream out(options.spans_out);
        trace.write_jsonl(out);
    }
    return untraced_walls;
}

// --- set-up -------------------------------------------------------------------

Deployment build_setup(const ytcdn::study::StudyConfig& config,
                       ytcdn::util::ThreadPool& pool, std::vector<double>& setup_walls,
                       LayerSamples* layers) {
    Deployment out;
    const double t0 = now_s();
    out.world = std::make_unique<ytcdn::study::StudyDeployment>(config);
    const double t1 = now_s();
    const auto& world = *out.world;
    out.maps = ytcdn::util::parallel_map_indexed(
        pool, world.num_vantage_points(), [&world](std::size_t i) {
            return ytcdn::study::ground_truth_dc_map(world, world.vantage(i));
        });
    const double t2 = now_s();
    setup_walls.push_back(t2 - t0);
    if (layers != nullptr) {
        layers->add("study.deployment_s", t1 - t0, "s");
        layers->add("geoloc.dc_map_s", t2 - t1, "s");
    }
    return out;
}

void sample_setup(const Options& options, const ytcdn::study::StudyConfig& config,
                  ytcdn::util::ThreadPool& pool, std::vector<double>& setup_walls,
                  LayerSamples* layers) {
    for (int i = 0; i < (options.tiny ? 2 : 30); ++i) {
        (void)build_setup(config, pool, setup_walls, layers);
    }
}

}  // namespace perfbench
