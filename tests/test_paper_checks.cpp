#include "study/paper_checks.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "study/report.hpp"
#include "study/study_run.hpp"

namespace {

using namespace ytcdn;

/// The line of `text` whose first field is `id`, or "" when there is none.
std::string row_of(const std::string& text, const std::string& id) {
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind(id + " ", 0) == 0) return line;
    }
    return "";
}

bool ends_with(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

TEST(PaperChecks, VerdictBoundaries) {
    const study::PaperCheck with_band{"X.banded", "x.dat", "claim",
                                      study::CheckUnit::Percent, {0.70, 0.80}, 4,
                                      {0.65, 0.85}};
    EXPECT_EQ(study::verdict(with_band, 0.70), "pass");
    EXPECT_EQ(study::verdict(with_band, 0.75), "pass");
    EXPECT_EQ(study::verdict(with_band, 0.80), "pass");
    EXPECT_EQ(study::verdict(with_band, 0.69), "deviation 4");
    EXPECT_EQ(study::verdict(with_band, 0.81), "deviation 4");
    EXPECT_EQ(study::verdict(with_band, 0.65), "deviation 4");
    EXPECT_EQ(study::verdict(with_band, 0.85), "deviation 4");
    EXPECT_EQ(study::verdict(with_band, 0.6499), "FAIL");
    EXPECT_EQ(study::verdict(with_band, 0.8501), "FAIL");

    const study::PaperCheck plain{"X.plain", "x.dat", "claim", study::CheckUnit::Ratio,
                                  {10.0, 1e300}, 0, {}};
    EXPECT_EQ(study::verdict(plain, 10.0), "pass");
    EXPECT_EQ(study::verdict(plain, 9.99), "FAIL");
}

TEST(PaperChecks, RowsFollowTheirArtifact) {
    // Fig 6 degraded, Fig 9 rendered without measurements, Table I measured
    // at scale 0.1 (a Volume row divides by the scale), Table III absent.
    const std::vector<study::ArtifactMeasurements> artifacts = {
        {"table1.txt", {{"T1.US-Campus.flows", 87464.9}}, false},
        {"fig06_flows_per_session.dat", {}, true},
        {"fig09_hourly_nonpreferred_cdf.dat", {}, false},
    };
    const std::string text = study::render_paper_checks(artifacts, 0.1);

    const auto flows = row_of(text, "T1.US-Campus.flows");
    EXPECT_NE(flows.find("874649"), std::string::npos) << flows;
    EXPECT_TRUE(ends_with(flows, "pass")) << flows;
    EXPECT_TRUE(ends_with(row_of(text, "T1.EU2.flows"), "FAIL"));
    EXPECT_TRUE(ends_with(row_of(text, "F6.EU2.single_flow"), "degraded"));
    EXPECT_TRUE(ends_with(row_of(text, "F9.EU2.median"), "FAIL"));
    EXPECT_EQ(row_of(text, "T3.dc_cities"), "");
    EXPECT_EQ(row_of(text, "F7.EU2.lowest_rtt_dc"), "");
}

TEST(PaperChecks, NoFailVerdictAtStudyScale) {
    study::StudyConfig cfg;
    cfg.scale = 0.05;
    study::ReportOptions opts;
    opts.include_table3 = false;
    const auto report = study::make_full_report(study::run_study(cfg), opts);
    ASSERT_EQ(report.artifacts.back().name, "paper_checks.txt");
    const std::string& text = report.artifacts.back().content;

    std::size_t rows = 0;
    for (const auto& check : study::paper_checks()) {
        if (report.content(check.artifact) == nullptr) continue;
        ++rows;
        const auto row = row_of(text, check.id);
        ASSERT_FALSE(row.empty()) << check.id;
        EXPECT_TRUE(ends_with(row, "pass") ||
                    ends_with(row, "deviation " + std::to_string(check.deviation)))
            << row;
    }
    EXPECT_GT(rows, 80u);
}

}  // namespace
