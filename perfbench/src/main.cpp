// ytcdn_perfbench — one workload of the repository benchmark per process.
//
//   ytcdn_perfbench --workload scale_stream|full_study|serve_rotated
//                   --seed N --seconds S --trace 0|1 --work-dir DIR
//                   [--tiny] [--spans-out FILE] [--git-sha SHA] [--git-dirty 0|1]
//
// Prints check/info/metric lines, a provenance line, and as its last line
// `result {...}` with correct/attempted/failed and every metric it measured.
// Exit status: 0 when every correctness check passed, 1 when one failed,
// 2 on bad usage or an unoptimized build. perfbench/run.py builds and drives
// this binary; see perfbench/README.md.

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <iostream>

#include "bench.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
    std::cerr << "ytcdn_perfbench: refusing to measure an unoptimized build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
#endif
    perfbench::Options options;
    try {
        const ytcdn::util::ArgParser args(argc, argv, {"tiny"});
        const auto unknown = args.unknown_options(
            {"workload", "seed", "seconds", "trace", "work-dir", "tiny", "spans-out",
             "git-sha", "git-dirty"});
        if (!unknown.empty()) {
            std::cerr << "ytcdn_perfbench: unknown option --" << unknown.front() << '\n';
            return 2;
        }
        options.workload = args.get_or("workload", "");
        options.seed = static_cast<std::uint64_t>(args.get_long_or("seed", 1));
        options.seconds = args.get_double_or("seconds", 10.0);
        options.trace = args.get_long_or("trace", 0) != 0;
        options.tiny = args.has_flag("tiny");
        options.work_dir = args.get_or("work-dir", "");
        options.spans_out = args.get_or("spans-out", "");
        options.git_sha = args.get_or("git-sha", "unknown");
        options.git_dirty = args.get_or("git-dirty", "unknown");
    } catch (const std::exception& e) {
        std::cerr << "ytcdn_perfbench: " << e.what() << '\n';
        return 2;
    }
    if (options.work_dir.empty() || options.seconds <= 0.0) {
        std::cerr << "ytcdn_perfbench: --work-dir and a positive --seconds are required\n";
        return 2;
    }
    const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
    options.workers =
        std::clamp<std::size_t>(nproc > 0 ? static_cast<std::size_t>(nproc) : 1, 1,
                                perfbench::kWorkers);

    perfbench::Result result;
    try {
        perfbench::fresh_dir(options.work_dir);
        if (options.workload == "scale_stream") {
            perfbench::run_scale_stream(options, result);
        } else if (options.workload == "full_study") {
            perfbench::run_full_study(options, result);
        } else if (options.workload == "serve_rotated") {
            perfbench::run_serve_rotated(options, result);
        } else {
            std::cerr << "ytcdn_perfbench: unknown workload '" << options.workload << "'\n";
            return 2;
        }
    } catch (const std::exception& e) {
        result.check("workload ran to completion", false, e.what());
    }
    result.print(std::cout, options);
    return result.correct() ? 0 : 1;
}
