#include "capture/log_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "capture/binary_log.hpp"
#include "capture/flow_log.hpp"
#include "test_support.hpp"

namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;

namespace {

std::vector<capture::FlowRecord> sample_records() {
    std::vector<capture::FlowRecord> out;
    for (int i = 0; i < 20; ++i) {
        capture::FlowRecord r;
        r.client_ip = net::IpAddress::from_octets(10, 0, 0, static_cast<std::uint8_t>(i));
        r.server_ip = net::IpAddress::from_octets(173, 194, 0, 1);
        r.start = i * 10.0;
        r.end = r.start + 5.0;
        r.bytes = 5000u + static_cast<std::uint64_t>(i);
        r.video = cdn::VideoId{0xAA00ull + static_cast<std::uint64_t>(i)};
        r.resolution = cdn::Resolution::R360;
        out.push_back(r);
    }
    return out;
}

TEST(LogIo, ExtensionDispatch) {
    // The writer dispatches by extension...
    EXPECT_TRUE(capture::is_binary_log_path("trace.yfl"));
    EXPECT_FALSE(capture::is_binary_log_path("trace.tsv"));
    EXPECT_FALSE(capture::is_binary_log_path("trace"));
    EXPECT_FALSE(capture::is_binary_log_path("trace.yfl.tsv"));

    // ...the path reader by content: YFL2 bytes read back under any name.
    const ytcdn::test::ScratchDir dir;
    const auto records = sample_records();
    const std::string yfl2 = capture::write_binary_log_bytes(records);
    for (const char* name : {"yfl2.tsv", "yfl2"}) {
        ytcdn::test::put_file(dir.path() / name, yfl2);
        const auto back = capture::read_flow_log_result(dir.path() / name);
        ASSERT_TRUE(back.ok()) << name << ": " << back.error().what();
        ASSERT_EQ(back.value().size(), records.size()) << name;
        for (std::size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(back.value()[i].start, records[i].start) << name;
            EXPECT_EQ(back.value()[i].bytes, records[i].bytes) << name;
        }
    }
    // A ".yfl" without the magic is a damaged YFL2 log, never TSV, and so
    // is an empty one.
    std::ostringstream tsv;
    capture::write_flow_log(tsv, records);
    for (const std::string& bytes : {tsv.str(), std::string()}) {
        ytcdn::test::put_file(dir.path() / "not_yfl2.yfl", bytes);
        const auto back = capture::read_flow_log_result(dir.path() / "not_yfl2.yfl");
        ASSERT_FALSE(back.ok());
        EXPECT_EQ(back.error().category(), ytcdn::ErrorCategory::Corrupt)
            << back.error().what();
    }
}

TEST(LogIo, RoundTripsBothFormatsIdentically) {
    const auto records = sample_records();
    const auto dir = std::filesystem::temp_directory_path();
    const auto tsv = dir / "ytcdn_logio.tsv";
    const auto yfl = dir / "ytcdn_logio.yfl";
    capture::write_any_log(tsv, records);
    capture::write_any_log(yfl, records);

    const auto from_tsv = capture::read_flow_log(tsv);
    const auto from_yfl = capture::read_flow_log(yfl);
    ASSERT_EQ(from_tsv.size(), records.size());
    ASSERT_EQ(from_yfl.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(from_tsv[i].video, from_yfl[i].video);
        EXPECT_EQ(from_tsv[i].bytes, from_yfl[i].bytes);
    }
    // Cross-check the dispatch really picked different encodings.
    EXPECT_EQ(std::filesystem::file_size(yfl),
              capture::binary_log_size(records.size()));
    EXPECT_GT(std::filesystem::file_size(tsv), std::filesystem::file_size(yfl));
    std::filesystem::remove(tsv);
    std::filesystem::remove(yfl);
}

TEST(LogIo, MissingFileThrows) {
    EXPECT_THROW((void)capture::read_flow_log("does_not_exist.tsv"),
                 std::runtime_error);
    EXPECT_THROW((void)capture::read_flow_log("does_not_exist.yfl"),
                 std::runtime_error);
}

}  // namespace
