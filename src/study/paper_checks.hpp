#pragma once

#include <limits>
#include <span>
#include <string>
#include <vector>

namespace ytcdn::study {

/// One shape metric a report job measured while rendering its artifact,
/// named by its paper_checks.txt row id (e.g. "F9.EU2.median").
struct Measurement {
    std::string id;
    double value = 0.0;
};

/// A report job's contribution to paper_checks.txt: the artifact's name, the
/// measurements taken from the artifact's own computation, and whether the
/// artifact degraded to a placeholder (its rows then render as `degraded`).
struct ArtifactMeasurements {
    std::string artifact;
    std::vector<Measurement> values;
    bool degraded = false;
};

/// How a row's value is shown and compared. A `Volume` row is a count that
/// grows with the trace volume: it compares value / config.scale against
/// the paper's full-magnitude number.
enum class CheckUnit { Percent, Count, Ratio, Volume };

/// Closed interval [lo, hi]; either end may be infinite.
struct CheckRange {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
};

/// One row of paper_checks.txt: the paper's claim about one artifact, the
/// range that reproduces it and, for a known miss, the band EXPERIMENTS.md's
/// deviation `deviation` documents (0 = none).
struct PaperCheck {
    std::string id;
    std::string artifact;
    std::string claim;
    CheckUnit unit = CheckUnit::Percent;
    CheckRange accepted;
    int deviation = 0;
    CheckRange band;
};

/// Every row, in paper_checks.txt order: Tables I-III, then Figs 4-16.
[[nodiscard]] std::span<const PaperCheck> paper_checks();

/// `pass` inside check.accepted, `deviation <n>` outside it but inside the
/// deviation's band, `FAIL` otherwise. `value` is already divided by the
/// scale for a Volume row.
[[nodiscard]] std::string verdict(const PaperCheck& check, double value);

/// Renders paper_checks.txt from the report's measurements. A row appears
/// when its artifact is among `artifacts`; a row whose artifact degraded
/// renders `degraded`, and a row its artifact did not measure renders
/// `FAIL`; a measurement no row names is not shown.
[[nodiscard]] std::string render_paper_checks(
    std::span<const ArtifactMeasurements> artifacts, double scale);

}  // namespace ytcdn::study
