#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "capture/classifier.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_log.hpp"
#include "capture/sniffer.hpp"
#include "cdn/http.hpp"

namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace net = ytcdn::net;

namespace {

capture::ObservedFlow video_flow(std::uint64_t bytes = 5'000'000) {
    capture::ObservedFlow f;
    f.client_ip = net::IpAddress::from_octets(128, 210, 1, 2);
    f.server_ip = net::IpAddress::from_octets(173, 194, 0, 7);
    f.start = 100.0;
    f.end = 180.0;
    f.bytes_down = bytes;
    // ObservedFlow borrows the payload; keep the bytes alive for the test.
    static const std::string payload = cdn::format_request(
        {"v7.lscache3.c.youtube.com", cdn::VideoId{0xCAFEull}, 34});
    f.first_payload = payload;
    return f;
}

TEST(Classifier, AcceptsVideoRequests) {
    const auto record = capture::classify_flow(video_flow());
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->video, cdn::VideoId{0xCAFEull});
    EXPECT_EQ(record->resolution, cdn::Resolution::R360);
    EXPECT_EQ(record->bytes, 5'000'000u);
}

TEST(Classifier, RejectsOtherTraffic) {
    // Payloads a PoP's DPI sees all day and must not keep as video flows.
    // Note the YouTube portal page: same domain family, not a video flow.
    const std::string_view payloads[] = {
        "GET /index.html HTTP/1.1\r\nHost: news.example.com\r\n\r\n",
        "\x16\x03\x01 TLS handshake bytes",
        "GET / HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: Mozilla/5.0\r\n\r\n",
        "GET /watch?v=dQw4w9WgXcQ HTTP/1.1\r\nHost: www.youtube.com\r\n\r\n",
        "GET /static/ads.js HTTP/1.1\r\nHost: cdn.adnetwork.test\r\n\r\n",
        "POST /api/v1/sync HTTP/1.1\r\nHost: api.social.test\r\n\r\n",
        "\x16\x03\x01\x02\x00",  // TLS ClientHello prefix
    };
    for (const auto payload : payloads) {
        SCOPED_TRACE(std::string(payload));
        auto f = video_flow();
        f.first_payload = payload;
        EXPECT_FALSE(capture::classify_flow(f).has_value());

        capture::Sniffer sniffer("NOISE");
        sniffer.observe(f);
        EXPECT_EQ(sniffer.flows_observed(), 1u);
        EXPECT_EQ(sniffer.flows_ignored(), 1u);
        EXPECT_EQ(sniffer.flows_classified(), 0u);
        EXPECT_TRUE(sniffer.records().empty());
        EXPECT_EQ(sniffer.hosts().size(), 0u);
    }
}

TEST(Classifier, ErrorTaxonomy) {
    EXPECT_EQ(capture::classify_error("\x16\x03\x01"),
              capture::ClassifyError::NotHttp);
    EXPECT_EQ(capture::classify_error(
                  "GET / HTTP/1.1\r\nHost: www.youtube.com\r\n\r\n"),
              capture::ClassifyError::NotVideoRequest);
    EXPECT_EQ(capture::classify_error(video_flow().first_payload), std::nullopt);
}

TEST(Sniffer, CountsAndClassifies) {
    capture::Sniffer sniffer("TEST");
    sniffer.observe(video_flow());
    auto other = video_flow();
    other.first_payload = "GET / HTTP/1.1\r\nHost: example.com\r\n\r\n";
    sniffer.observe(other);
    EXPECT_EQ(sniffer.flows_observed(), 2u);
    EXPECT_EQ(sniffer.flows_classified(), 1u);
    EXPECT_EQ(sniffer.flows_ignored(), 1u);
    EXPECT_EQ(sniffer.dataset_name(), "TEST");

    const auto records = sniffer.take_records();
    EXPECT_EQ(records.size(), 1u);
    EXPECT_TRUE(sniffer.records().empty());
    // DPI interned the video host (and only the video host) in seen order.
    EXPECT_EQ(sniffer.hosts().size(), 1u);
    EXPECT_EQ(sniffer.hosts().find("v7.lscache3.c.youtube.com"), 0u);
}

TEST(FlowLog, StreamRoundTrip) {
    capture::Sniffer sniffer("T");
    for (int i = 0; i < 5; ++i) {
        auto f = video_flow(1000u + static_cast<std::uint64_t>(i));
        f.start += i;
        sniffer.observe(f);
    }
    const auto records = sniffer.records();

    std::stringstream ss;
    capture::write_flow_log(ss, records);
    const auto back = capture::read_flow_log(ss);
    ASSERT_EQ(back.size(), records.size());
    for (std::size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].bytes, records[i].bytes);
        EXPECT_EQ(back[i].video, records[i].video);
    }
}

TEST(FlowLog, FileRoundTripAndErrors) {
    const auto path = std::filesystem::temp_directory_path() / "ytcdn_flowlog_test.tsv";
    capture::Sniffer sniffer("T");
    sniffer.observe(video_flow());
    capture::write_flow_log(path, sniffer.records());
    const auto back = capture::read_flow_log(path);
    EXPECT_EQ(back.size(), 1u);
    std::filesystem::remove(path);
    EXPECT_THROW((void)capture::read_flow_log(path), std::runtime_error);
}

TEST(FlowLog, MalformedLineThrowsWithLineNumber) {
    std::stringstream ss("# header\nnot a record\n");
    try {
        (void)capture::read_flow_log(ss);
        FAIL() << "expected throw";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

TEST(Dataset, SummaryAggregates) {
    capture::Dataset ds;
    ds.name = "X";
    capture::Sniffer sniffer("X");
    for (int i = 0; i < 3; ++i) {
        auto f = video_flow(1'000'000);
        f.client_ip = net::IpAddress::from_octets(128, 210, 1,
                                                  static_cast<std::uint8_t>(i % 2));
        f.server_ip = net::IpAddress::from_octets(173, 194, 0,
                                                  static_cast<std::uint8_t>(i));
        sniffer.observe(f);
    }
    ds.records = sniffer.take_records();
    const auto s = ds.summary();
    EXPECT_EQ(s.flows, 3u);
    EXPECT_EQ(s.distinct_clients, 2u);
    EXPECT_EQ(s.distinct_servers, 3u);
    EXPECT_NEAR(s.volume_gb, 3e-3, 1e-9);
}

TEST(Dataset, SortByTimeOrders) {
    capture::Dataset ds;
    capture::FlowRecord a, b;
    a.start = 10.0;
    b.start = 5.0;
    ds.records = {a, b};
    ds.sort_by_time();
    EXPECT_DOUBLE_EQ(ds.records.front().start, 5.0);
}

}  // namespace
