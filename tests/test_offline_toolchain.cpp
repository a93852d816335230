// End-to-end offline-toolchain integrity: persist a dataset (both log
// formats) and its server->DC map, reload everything from disk, and verify
// that every analysis reaches byte-identical conclusions to the in-memory
// pipeline. This is the guarantee behind the `ytcdn analyze` command: the
// simulator is not needed once the logs and map exist.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/streaming.hpp"
#include "capture/flow_log.hpp"
#include "capture/log_io.hpp"
#include "study/study_run.hpp"

namespace study = ytcdn::study;
namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;

namespace {

class OfflineToolchainFixture : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        study::StudyConfig cfg;
        cfg.scale = 0.004;
        run_ = std::make_unique<study::StudyRun>(study::run_study(cfg));
    }
    static void TearDownTestSuite() { run_.reset(); }
    static std::unique_ptr<study::StudyRun> run_;
};

std::unique_ptr<study::StudyRun> OfflineToolchainFixture::run_;

TEST_F(OfflineToolchainFixture, DiskRoundTripPreservesEveryConclusion) {
    const auto dir = std::filesystem::temp_directory_path() / "ytcdn_offline_test";
    std::filesystem::create_directories(dir);

    for (const char* ext : {".tsv", ".yfl"}) {
        const std::size_t idx = run_->vp_index("EU1-ADSL");
        const auto& live = run_->traces.datasets[idx];
        const auto& live_map = run_->maps[idx];

        // Persist.
        const auto log_path = dir / (std::string("EU1-ADSL") + ext);
        capture::write_any_log(log_path, live.records);
        const auto map_path = dir / "EU1-ADSL.dcmap";
        {
            std::ofstream os(map_path);
            analysis::write_dc_map(os, live_map);
        }

        // Reload.
        capture::Dataset disk;
        disk.name = live.name;
        disk.records = capture::read_flow_log(log_path);
        disk.sort_by_time();
        std::ifstream is(map_path);
        const auto disk_map = analysis::read_dc_map(is);

        ASSERT_EQ(disk.records.size(), live.records.size()) << ext;

        // Same preferred data center.
        const int live_pref = run_->preferred[idx];
        const int disk_pref = analysis::preferred_dc(disk, disk_map);
        EXPECT_EQ(disk_map.info(disk_pref).name, live_map.info(live_pref).name) << ext;

        // Same shares (byte-identical through TSV's %.6f timestamps is not
        // guaranteed for session grouping at pathological gaps, so compare
        // with a tight tolerance; the binary path must match exactly).
        const auto live_share = analysis::non_preferred_share(live, live_map, live_pref);
        const auto disk_share = analysis::non_preferred_share(disk, disk_map, disk_pref);
        EXPECT_NEAR(disk_share.byte_fraction, live_share.byte_fraction, 1e-12) << ext;
        EXPECT_NEAR(disk_share.flow_fraction, live_share.flow_fraction, 1e-12) << ext;

        const auto patterns_of = [](const capture::Dataset& ds,
                                    const analysis::ServerDcMap& map, int preferred) {
            auto fold = analysis::fold_records(ds, map, analysis::SessionFold(preferred));
            fold.finish();
            return fold.patterns();
        };
        const auto live_patterns = patterns_of(live, live_map, live_pref);
        const auto disk_patterns = patterns_of(disk, disk_map, disk_pref);
        EXPECT_EQ(disk_patterns.total_sessions, live_patterns.total_sessions) << ext;
        EXPECT_NEAR(disk_patterns.single_flow, live_patterns.single_flow, 1e-9) << ext;
        EXPECT_NEAR(disk_patterns.two_pref_nonpref, live_patterns.two_pref_nonpref,
                    1e-9)
            << ext;

        const double live_corr =
            analysis::fold_records(live, live_map,
                                   analysis::IncrementalHourlyLoad(live_pref, live.name))
                .correlation();
        const double disk_corr =
            analysis::fold_records(disk, disk_map,
                                   analysis::IncrementalHourlyLoad(disk_pref, disk.name))
                .correlation();
        EXPECT_NEAR(disk_corr, live_corr, 1e-9) << ext;
    }
    std::filesystem::remove_all(dir);
}

TEST_F(OfflineToolchainFixture, MapIsDeterministicOnDisk) {
    std::stringstream a, b;
    analysis::write_dc_map(a, run_->maps[0]);
    analysis::write_dc_map(b, run_->maps[0]);
    EXPECT_EQ(a.str(), b.str());  // assignments are sorted before writing
}

}  // namespace
