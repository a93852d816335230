// The umbrella header must compile standalone and expose the documented
// entry points.

#include "ytcdn.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, DocumentedFlowCompilesAndRuns) {
    ytcdn::study::StudyConfig config;
    config.scale = 0.003;
    const auto run = ytcdn::study::run_study(config);

    const auto adsl = run.vp_index("EU1-ADSL");
    const auto folds = ytcdn::analysis::fold_report(
        run.traces.datasets[adsl], ytcdn::study::vantage_scope(run, adsl));
    const auto patterns = folds.sessions.patterns();
    EXPECT_GT(patterns.total_sessions, 0u);
    EXPECT_GT(patterns.single_flow, 0.5);
}

}  // namespace
