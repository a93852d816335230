#include "study/report.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "analysis/as_analysis.hpp"
#include "study/study_run.hpp"

namespace study = ytcdn::study;
namespace analysis = ytcdn::analysis;

namespace {

class ReportFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.004;
        ytcdn::util::ThreadPool pool(2);
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg, pool));
        folds_ = std::make_unique<study::StudyFolds>(study::fold_study(*run_, pool));
    }
    static void TearDownTestSuite() {
        folds_.reset();
        run_.reset();
    }
    static std::unique_ptr<study::StudyRun> run_;
    static std::unique_ptr<study::StudyFolds> folds_;
};

std::unique_ptr<study::StudyRun> ReportFixture::run_;
std::unique_ptr<study::StudyFolds> ReportFixture::folds_;

TEST_F(ReportFixture, TableOneCarriesPaperReference) {
    const std::string rendered = study::make_table1(folds_->vantage).render();
    for (const char* expected :
         {"US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2",
          "874649", "7061.27", "20443", "513403"}) {
        EXPECT_NE(rendered.find(expected), std::string::npos) << expected;
    }
    EXPECT_EQ(study::make_table1(folds_->vantage).num_rows(), 5u);
}

TEST_F(ReportFixture, TableTwoRowsSumToRoughlyOneHundred) {
    const std::string rendered = study::make_table2(folds_->vantage).render();
    EXPECT_NE(rendered.find("Google srv%"), std::string::npos);
    EXPECT_NE(rendered.find("SameAS byt%"), std::string::npos);
    // Re-derive the rows and check the shares are a partition.
    for (std::size_t i = 0; i < 5; ++i) {
        const auto row = folds_->vantage[i].as.row(run_->traces.datasets[i].name);
        EXPECT_NEAR(row.google_servers + row.youtube_eu_servers + row.same_as_servers +
                        row.other_servers,
                    1.0, 1e-9)
            << run_->traces.datasets[i].name;
        EXPECT_NEAR(row.google_bytes + row.youtube_eu_bytes + row.same_as_bytes +
                        row.other_bytes,
                    1.0, 1e-9)
            << run_->traces.datasets[i].name;
    }
}

TEST_F(ReportFixture, TableThreeHandlesPartialCounts) {
    std::vector<analysis::ContinentCounts> counts(2);  // fewer than datasets
    counts[0].north_america = 7;
    counts[1].europe = 9;
    const auto t = study::make_table3(*run_, counts);
    EXPECT_EQ(t.num_rows(), 2u);
    const std::string rendered = t.render();
    EXPECT_NE(rendered.find("7"), std::string::npos);
    EXPECT_NE(rendered.find("9"), std::string::npos);
}

TEST_F(ReportFixture, RunWithoutDerivedColumnsIsRejected) {
    study::ReportOptions options;
    options.include_table3 = false;
    ytcdn::util::ThreadPool pool(2);
    const std::string healthy = study::make_full_report(*run_, pool, options).render();

    // The derived maps and preferred data centers must cover every dataset:
    // the report refuses instead of rendering around a missing one.
    const auto preferred = run_->preferred;
    run_->preferred.pop_back();
    EXPECT_THROW((void)study::make_full_report(*run_, pool, options),
                 std::invalid_argument);
    run_->preferred = preferred;
    auto maps = std::move(run_->maps);
    run_->maps.clear();
    EXPECT_THROW((void)study::make_full_report(*run_, pool, options),
                 std::invalid_argument);

    // Restoring them restores the exact report.
    run_->maps = std::move(maps);
    EXPECT_EQ(study::make_full_report(*run_, pool, options).render(), healthy);
}

}  // namespace
