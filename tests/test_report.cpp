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
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> ReportFixture::run_;

TEST_F(ReportFixture, TableOneCarriesPaperReference) {
    const std::string rendered = study::make_table1(*run_).render();
    for (const char* expected :
         {"US-Campus", "EU1-Campus", "EU1-ADSL", "EU1-FTTH", "EU2",
          "874649", "7061.27", "20443", "513403"}) {
        EXPECT_NE(rendered.find(expected), std::string::npos) << expected;
    }
    EXPECT_EQ(study::make_table1(*run_).num_rows(), 5u);
}

TEST_F(ReportFixture, TableTwoRowsSumToRoughlyOneHundred) {
    const std::string rendered = study::make_table2(*run_).render();
    EXPECT_NE(rendered.find("Google srv%"), std::string::npos);
    EXPECT_NE(rendered.find("SameAS byt%"), std::string::npos);
    // Re-derive the rows and check the shares are a partition.
    for (std::size_t i = 0; i < 5; ++i) {
        const auto row = analysis::as_breakdown(run_->traces.datasets[i],
                                                run_->deployment->whois(),
                                                run_->deployment->local_as(i));
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

    // Columns never derived: the report refuses instead of rendering around it.
    run_->sessions.clear();
    EXPECT_THROW((void)study::make_full_report(*run_, pool, options),
                 std::invalid_argument);
    // A DC column that does not index this dataset's records.
    study::index_study_run(*run_, pool);
    run_->dc_columns[1].pop_back();
    EXPECT_THROW((void)study::make_full_report(*run_, pool, options),
                 std::invalid_argument);

    // Re-deriving restores the exact report.
    study::index_study_run(*run_, pool);
    EXPECT_EQ(study::make_full_report(*run_, pool, options).render(), healthy);
}

}  // namespace
