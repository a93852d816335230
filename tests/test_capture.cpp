#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/incremental.hpp"
#include "analysis/streaming.hpp"
#include "capture/classifier.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_log.hpp"
#include "capture/sniffer.hpp"
#include "cdn/http.hpp"
#include "util/parallel.hpp"

namespace analysis = ytcdn::analysis;
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
}

/// Every itag the DPI accepts: each resolution's own, plus 18 (360p mp4).
std::vector<int> accepted_itags() {
    std::vector<int> itags{18};
    for (const auto r : cdn::kAllResolutions) itags.push_back(cdn::itag_of(r));
    return itags;
}

/// Flows of one itag as the player emits them: the request as fields.
std::vector<capture::ObservedFlow> field_flows(int itag) {
    static const std::string hosts[] = {"v7.lscache3.c.youtube.com",
                                        "v1.lscache8.c.youtube.com",
                                        "v23.cache1.c.youtube.com"};
    std::vector<capture::ObservedFlow> flows;
    for (std::uint64_t k = 0; k < 40; ++k) {
        capture::ObservedFlow f;
        f.client_ip = net::IpAddress::from_octets(128, 210, 1, static_cast<std::uint8_t>(k));
        f.server_ip = net::IpAddress::from_octets(173, 194, 0, static_cast<std::uint8_t>(k % 7));
        f.start = 100.0 + static_cast<double>(k) * 1.5;
        f.end = f.start + 30.0;
        f.bytes_down = 700 + k * 123'457;
        f.request = cdn::VideoRequestView{hosts[k % 3],
                                          cdn::VideoId{(0x9E3779B97F4Aull * (k + 1)) >> 2},
                                          itag};
        flows.push_back(f);
    }
    return flows;
}

/// Collects each sniffer's handed-off flows into a FlowBlock of its own.
class BlockPerSource final : public capture::FlowHandoff {
public:
    explicit BlockPerSource(std::size_t sources) : blocks(sources) {}
    void hand_off(std::uint8_t source, const capture::ObservedFlow& flow) override {
        blocks[source].add(source, flow);
    }
    std::vector<capture::FlowBlock> blocks;
};

void expect_same_records(const std::vector<capture::FlowRecord>& got,
                         const std::vector<capture::FlowRecord>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].to_tsv(), want[i].to_tsv()) << i;
    }
}

TEST(Sniffer, RequestFieldsClassifyAsTheirFormattedBytes) {
    // A flow handed over as request fields, rendered by the sniffer at DPI
    // time, must classify exactly as the same flow given as format_request
    // bytes: serially in observe(), and behind a hand-off whose blocks are
    // classified on pool workers (each sniffer by one task).
    const auto itags = accepted_itags();
    std::vector<std::vector<capture::FlowRecord>> want;
    for (const int itag : itags) {
        capture::Sniffer bytes_sniffer("BYTES");
        for (const auto& f : field_flows(itag)) {
            const std::string payload = cdn::format_request(
                {std::string(f.request->host), f.request->video, f.request->itag});
            auto raw = f;
            raw.request.reset();
            raw.first_payload = payload;
            bytes_sniffer.observe(raw);
        }
        want.push_back(bytes_sniffer.take_records());
        ASSERT_EQ(want.back().size(), 40u) << itag;

        capture::Sniffer serial("FIELDS");
        for (const auto& f : field_flows(itag)) serial.observe(f);
        SCOPED_TRACE(itag);
        expect_same_records(serial.take_records(), want.back());
    }

    for (const std::size_t pool_size : {std::size_t{1}, std::size_t{4}}) {
        SCOPED_TRACE(pool_size);
        BlockPerSource handoff(itags.size());
        std::vector<capture::Sniffer> sniffers;
        sniffers.reserve(itags.size());
        for (std::size_t i = 0; i < itags.size(); ++i) {
            sniffers.emplace_back("FIELDS");
            sniffers[i].set_handoff(&handoff, static_cast<std::uint8_t>(i));
            for (const auto& f : field_flows(itags[i])) sniffers[i].observe(f);
            EXPECT_TRUE(sniffers[i].records().empty());
        }
        ytcdn::util::ThreadPool pool(pool_size);
        pool.run_indexed(itags.size(), [&](std::size_t i) {
            const auto& block = handoff.blocks[i];
            for (std::size_t k = 0; k < block.size(); ++k) {
                sniffers[block.source(k)].classify(block.flow(k));
            }
        });
        for (std::size_t i = 0; i < itags.size(); ++i) {
            EXPECT_EQ(sniffers[i].flows_observed(), 40u);
            EXPECT_EQ(sniffers[i].flows_classified(), 40u);
            expect_same_records(sniffers[i].take_records(), want[i]);
        }
    }
}

TEST(Sniffer, FlowBlockTakesNoPayloadBytes) {
    // A block keeps no payload bytes, so a flow given as borrowed bytes
    // cannot be handed off; the error names the rule.
    capture::FlowBlock block;
    EXPECT_THROW(block.add(0, video_flow()), std::invalid_argument);
    EXPECT_EQ(block.size(), 0u);
    auto fields = field_flows(34).front();
    block.add(3, fields);
    ASSERT_EQ(block.size(), 1u);
    EXPECT_EQ(block.source(0), 3u);
    EXPECT_EQ(block.flow(0).request->host, fields.request->host);
    EXPECT_TRUE(block.flow(0).first_payload.empty());
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
    // Table I's counts are the IncrementalSummary fold over the dataset.
    const auto s = analysis::fold_records(ds, analysis::IncrementalSummary{});
    EXPECT_EQ(s.flows, 3u);
    EXPECT_EQ(s.clients.size(), 2u);
    EXPECT_EQ(s.servers.size(), 3u);
    EXPECT_NEAR(s.volume_gb(), 3e-3, 1e-9);
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
