#pragma once

// Shared infrastructure for the per-table / per-figure bench binaries.
//
// Each binary runs google-benchmark timings of the pipeline stages behind
// one paper artifact. The artifacts `ytcdn study` renders (Tables I-III,
// Figs 4-16) are checked against the paper in its artifacts/paper_checks.txt,
// so their binaries only time. The others (Figs 2, 3, 17, 18 and the
// ablations) first print their rows or series, with the paper's reference
// values quoted in "# paper:" comments.

#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "geoloc/landmark.hpp"
#include "study/study_run.hpp"

namespace ytcdn::bench {

/// Trace-volume scale used by the benches, overridable via the
/// YTCDN_BENCH_SCALE environment variable (1.0 = paper magnitudes).
[[nodiscard]] double bench_scale();

/// The study configuration all benches share.
[[nodiscard]] study::StudyConfig bench_config();

/// One full study run (deployment + week of traces + per-VP maps), built
/// lazily and cached for the process lifetime.
[[nodiscard]] const study::StudyRun& shared_run();

/// The paper's 215-node PlanetLab landmark set against the shared
/// deployment's RTT model.
[[nodiscard]] const std::vector<geoloc::Landmark>& shared_landmarks();

/// Prints the standard experiment banner.
void print_banner(const char* artifact, const char* claim);

/// Writes the bench's internal counters as one flat JSON object to the file
/// named by YTCDN_METRICS_OUT (no-op when unset). Combines the process-wide
/// util::metrics registry with counters derived from the shared run's
/// player statistics (DNS cache hit rate, redirects per session, ...), so
/// the numbers are identical whether the run was simulated or loaded from a
/// trace snapshot. run_benches.sh merges the file into BENCH_results.json
/// as each bench's "internal_counters".
void dump_metrics_snapshot();

}  // namespace ytcdn::bench

/// Defines main(): prints the reproduction (PRINT_FN may be nullptr), runs
/// benchmarks, then dumps the internal-counter snapshot for the suite
/// aggregator.
#define YTCDN_BENCH_MAIN(PRINT_FN)                                  \
    int main(int argc, char** argv) {                               \
        if (void (*print)() = PRINT_FN) print();                    \
        ::benchmark::Initialize(&argc, argv);                       \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) { \
            return 1;                                               \
        }                                                           \
        ::benchmark::RunSpecifiedBenchmarks();                      \
        ::benchmark::Shutdown();                                    \
        ::ytcdn::bench::dump_metrics_snapshot();                    \
        return 0;                                                   \
    }
