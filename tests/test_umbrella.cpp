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
    const auto patterns = ytcdn::analysis::session_patterns(
        run.sessions[adsl], run.dc_columns[adsl], run.preferred[adsl]);
    EXPECT_GT(patterns.total_sessions, 0u);
    EXPECT_GT(patterns.single_flow, 0.5);
}

}  // namespace
