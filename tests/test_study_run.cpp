#include "study/study_run.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace study = ytcdn::study;

namespace {

class StudyRunApiFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.003;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> StudyRunApiFixture::run_;

TEST_F(StudyRunApiFixture, LookupByNameAndErrors) {
    EXPECT_EQ(run_->vp_index("US-Campus"), 0u);
    EXPECT_EQ(run_->vp_index("EU2"), 4u);
    EXPECT_EQ(run_->dataset("EU1-FTTH").name, "EU1-FTTH");
    EXPECT_THROW((void)run_->vp_index("Atlantis"), std::out_of_range);
    EXPECT_THROW((void)run_->dataset(""), std::out_of_range);
}

TEST_F(StudyRunApiFixture, PerVantageProductsAreComplete) {
    ASSERT_EQ(run_->maps.size(), 5u);
    ASSERT_EQ(run_->preferred.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(run_->maps[i].num_data_centers(), 33u);
        EXPECT_GE(run_->preferred[i], 0);
        EXPECT_LT(run_->preferred[i], 33);
    }
    // The preferred data centers carry the paper's names.
    EXPECT_EQ(run_->maps[0].info(run_->preferred[0]).name, "Dallas");
    EXPECT_EQ(run_->maps[1].info(run_->preferred[1]).name, "Milan");
    EXPECT_EQ(run_->maps[4].info(run_->preferred[4]).name, "Budapest");
}

TEST_F(StudyRunApiFixture, EventAccountingIsPlausible) {
    // Every session needs at least an arrival event and a flow-end event.
    std::uint64_t sessions = 0;
    for (const auto s : run_->traces.requests_generated) sessions += s;
    EXPECT_GT(run_->traces.events_processed, 2 * sessions);
    // Only sessions generate events (measured: 13049 events for 5717
    // sessions, 2.28 per session); a background stream would add several.
    EXPECT_LT(run_->traces.events_processed, 3 * sessions);
}

}  // namespace
