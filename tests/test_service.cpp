// ytcdnd service mode: incremental aggregates vs the batch closures,
// deterministic load-shedding, control-protocol parsing, the service
// checkpoint codec, and byte-identical resume at any parse-pool size.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <random>
#include <span>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dc_map.hpp"
#include "analysis/incremental.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/session.hpp"
#include "capture/dataset.hpp"
#include "capture/log_io.hpp"
#include "service/aggregates.hpp"
#include "service/control.hpp"
#include "service/ingest_queue.hpp"
#include "service/service.hpp"
#include "service/spool.hpp"
#include "session_oracle.hpp"
#include "study/checkpoint.hpp"
#include "study/study_run.hpp"
#include "util/bytes.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"

namespace analysis = ytcdn::analysis;
namespace capture = ytcdn::capture;
namespace cdn = ytcdn::cdn;
namespace fs = std::filesystem;
namespace io = ytcdn::util::io;
namespace net = ytcdn::net;
namespace oracle = ytcdn::oracle;
namespace service = ytcdn::service;

namespace {

fs::path temp_dir(const std::string& tag) {
    const auto dir = fs::temp_directory_path() / ("ytcdn_svc_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

capture::FlowRecord flow(std::uint32_t client, std::uint32_t server,
                         double start, double end, std::uint64_t bytes,
                         std::uint64_t video) {
    capture::FlowRecord r;
    r.client_ip = net::IpAddress(client);
    r.server_ip = net::IpAddress(server);
    r.start = start;
    r.end = end;
    r.bytes = bytes;
    r.video = cdn::VideoId(video);
    return r;
}

/// A deterministic little workload: several clients re-fetching videos with
/// sub- and super-gap pauses, control flows mixed in, two /24s of servers.
std::vector<capture::FlowRecord> sample_records() {
    std::vector<capture::FlowRecord> records;
    for (std::uint32_t i = 0; i < 40; ++i) {
        const std::uint32_t client = 0x0A000000u + i % 7;
        const std::uint32_t server = 0xC0A80100u + (i % 2) * 256 + i % 5;
        const double start = 1.5 * i;
        // i % 3 == 0 starts a same-key flow within the gap (multi-flow
        // session); control flows (< 1000 B) every 8th record.
        const double end = start + (i % 3 == 0 ? 0.4 : 1.0);
        const std::uint64_t bytes = i % 8 == 0 ? 512 : 40'000 + 1000 * i;
        records.push_back(flow(client, server, start, end, bytes, i % 4));
    }
    return records;
}

analysis::ServerDcMap two_dc_map() {
    analysis::ServerDcMap map;
    analysis::DataCenterInfo near;
    near.name = "near";
    near.rtt_ms = 10.0;
    analysis::DataCenterInfo far;
    far.name = "far";
    far.rtt_ms = 30.0;
    const int near_idx = map.add_data_center(near);
    const int far_idx = map.add_data_center(far);
    map.assign(net::IpAddress(0xC0A80100u), near_idx);
    map.assign(net::IpAddress(0xC0A80200u), far_idx);
    return map;
}

}  // namespace

TEST(IncrementalSessions, MatchesBatchClosureOnSortedInput) {
    capture::Dataset ds;
    ds.records = sample_records();
    ds.sort_by_time();
    const auto batch = oracle::SessionTable::build(ds, 1.0);

    analysis::IncrementalSessions inc(1.0);
    for (const auto& r : ds.records) inc.add(r);
    inc.close_all();

    EXPECT_EQ(inc.sessions_closed(), batch.num_sessions());
    std::uint64_t batch_multi = 0;
    for (std::size_t s = 0; s < batch.num_sessions(); ++s) {
        batch_multi += batch.flows_of(s).size() > 1 ? 1 : 0;
    }
    EXPECT_EQ(inc.multi_flow_sessions(), batch_multi);
}

TEST(IncrementalSessions, OpenSetHoldsOnlyLiveSessions) {
    // Thousands of distinct keys 10 s apart: each flow's start passes the
    // previous session by more than the gap, so it closes before the next
    // one opens and the totals are unchanged.
    analysis::IncrementalSessions inc(1.0);
    for (std::uint32_t i = 0; i < 4096; ++i) {
        inc.add(flow(i, 0xC0A80101u, 10.0 * i, 10.0 * i + 1.0, 5000, i));
        ASSERT_LE(inc.open_count(), 1u) << "after add " << i;
    }
    inc.close_all();
    EXPECT_EQ(inc.sessions_closed(), 4096u);
    EXPECT_EQ(inc.multi_flow_sessions(), 0u);
    EXPECT_EQ(inc.open_count(), 0u);
}

TEST(IncrementalSessions, SweepHorizonFollowsTheNewestStart) {
    // A long flow must not drag the closure horizon to its end: (c2, v2)'s
    // session ends at 2 and is extended at 2.5, although the [0, 600] flow
    // has been seen before either.
    capture::Dataset ds;
    ds.records = {flow(1, 0xC0A80101u, 0.0, 600.0, 5000, 1),
                  flow(2, 0xC0A80101u, 1.0, 2.0, 5000, 2),
                  flow(3, 0xC0A80101u, 1.5, 1.6, 5000, 3),
                  flow(2, 0xC0A80101u, 2.5, 3.0, 5000, 2)};
    const auto batch = oracle::SessionTable::build(ds, 1.0);
    ASSERT_EQ(batch.num_sessions(), 3u);

    analysis::IncrementalSessions inc(1.0);
    for (const auto& r : ds.records) inc.add(r);
    inc.close_all();
    EXPECT_EQ(inc.sessions_closed(), batch.num_sessions());
    EXPECT_EQ(inc.multi_flow_sessions(), 1u);
}

namespace {

/// SessionTable::build's flows-per-session histogram, bucketed as
/// IncrementalSessions buckets it.
std::array<std::uint64_t, analysis::IncrementalSessions::kMaxBucket + 1>
batch_histogram(const capture::Dataset& ds) {
    constexpr std::size_t kMax = analysis::IncrementalSessions::kMaxBucket;
    const auto batch = oracle::SessionTable::build(ds, 1.0);
    std::array<std::uint64_t, kMax + 1> histogram{};
    for (std::size_t s = 0; s < batch.num_sessions(); ++s) {
        ++histogram[std::min(batch.flows_of(s).size(), kMax)];
    }
    return histogram;
}

/// Open sessions the watermark has passed by more than the gap.
std::size_t stale_open(const analysis::IncrementalSessions& inc) {
    const auto open = inc.open();
    return static_cast<std::size_t>(std::count_if(
        open.begin(), open.end(), [&inc](const auto& entry) {
            return inc.watermark() - entry.second.last_end > inc.gap();
        }));
}

}  // namespace

TEST(IncrementalSessions, MatchesSessionTableOverASimulatedWeek) {
    // Every vantage point of a simulated week: all eight histogram buckets
    // must equal the batch grouping's, and after every flow the open set
    // holds only sessions a later flow could still extend.
    ytcdn::study::StudyConfig cfg;
    cfg.scale = 0.05;
    auto run = ytcdn::study::run_study(cfg);
    std::size_t peak_open = 0;
    for (auto& ds : run.traces.datasets) {
        ds.sort_by_time();
        analysis::IncrementalSessions inc;
        std::size_t stale_adds = 0;
        for (const auto& r : ds.records) {
            inc.add(r);
            peak_open = std::max(peak_open, inc.open_count());
            stale_adds += stale_open(inc) > 0 ? 1 : 0;
        }
        EXPECT_EQ(stale_adds, 0u) << ds.name;
        inc.close_all();

        EXPECT_EQ(inc.histogram(), batch_histogram(ds)) << ds.name;
    }
    std::cout << "peak open_count " << peak_open << '\n';
}

TEST(IncrementalSessions, TenThousandOpenSessionsGrowTheTableExactly) {
    // 12 000 keys open at once (long flows the watermark cannot pass),
    // every third extended while open, then a later long flow per key whose
    // start expires the whole first wave and opens a second: the table
    // grows many times past its first capacity, and the histogram must
    // still equal the batch grouping's.
    constexpr std::uint32_t kKeys = 12'000;
    capture::Dataset ds;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
        ds.records.push_back(flow(0x0A000000u + i / 7, 0xC0A80101u, 1e-3 * i,
                                  500.0 + 1e-3 * i, 5000, 1'000'000 + i % 7));
    }
    for (std::uint32_t i = 0; i < kKeys; i += 3) {
        ds.records.push_back(flow(0x0A000000u + i / 7, 0xC0A80101u, 20.0 + 1e-3 * i,
                                  600.0 + 1e-3 * i, 5000, 1'000'000 + i % 7));
    }
    for (std::uint32_t i = 0; i < kKeys; ++i) {
        ds.records.push_back(flow(0x0A000000u + i / 7, 0xC0A80101u,
                                  1000.0 + 1e-3 * i, 1500.0 + 1e-3 * i, 5000,
                                  1'000'000 + i % 7));
    }
    ds.sort_by_time();

    analysis::IncrementalSessions inc(1.0);
    std::size_t peak_open = 0;
    for (const auto& r : ds.records) {
        inc.add(r);
        peak_open = std::max(peak_open, inc.open_count());
    }
    EXPECT_EQ(peak_open, kKeys);
    EXPECT_EQ(inc.sessions_closed(), kKeys);  // the first wave
    const auto open = inc.open();
    ASSERT_EQ(open.size(), kKeys);
    EXPECT_TRUE(std::is_sorted(open.begin(), open.end(),
                               [](const auto& a, const auto& b) {
                                   return a.first < b.first;
                               }));
    inc.close_all();
    EXPECT_EQ(inc.open_count(), 0u);
    const auto histogram = batch_histogram(ds);
    EXPECT_EQ(histogram[1], kKeys + kKeys - kKeys / 3);
    EXPECT_EQ(histogram[2], kKeys / 3);
    EXPECT_EQ(inc.histogram(), histogram);
}

TEST(IncrementalSessions, RestoredStaleSessionsCloseOnNextAdd) {
    // A checkpoint written before sessions closed on the watermark holds
    // every key's last session, however old. Restored, the stale ones count
    // as closed at once, and no recurring key may extend them.
    capture::Dataset ds;
    ds.records = sample_records();
    ds.sort_by_time();
    capture::Dataset prefix;
    prefix.records.assign(ds.records.begin(), ds.records.end() - 1);

    analysis::IncrementalSessions inc(1.0);
    const auto sessions = oracle::SessionTable::build(prefix, 1.0);
    std::map<analysis::IncrementalSessions::Key,
             analysis::IncrementalSessions::OpenSession>
        last_session;
    std::array<std::uint64_t, analysis::IncrementalSessions::kMaxBucket + 1>
        closed{};
    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        analysis::IncrementalSessions::OpenSession open;
        for (const std::uint32_t row : sessions.flows_of(s)) {
            open.last_end = std::max(open.last_end, prefix.records[row].end);
            ++open.flows;
        }
        auto [it, inserted] = last_session.try_emplace(
            {sessions.client[s].value(), sessions.video[s].value()}, open);
        if (!inserted) {
            // Sessions are in start order: the earlier one was closed.
            ++closed[std::min<std::size_t>(it->second.flows,
                                           analysis::IncrementalSessions::kMaxBucket)];
            it->second = open;
        }
    }
    for (std::size_t k = 1; k < closed.size(); ++k) inc.restore_closed(k, closed[k]);
    for (const auto& [key, open] : last_session) inc.restore(key, open);
    inc.set_watermark(prefix.records.back().start);
    ASSERT_LT(inc.open().size(), last_session.size());
    std::uint64_t restored_closed = 0;
    for (std::size_t k = 1; k < closed.size(); ++k) restored_closed += closed[k];
    ASSERT_EQ(inc.sessions_closed(),
              restored_closed + last_session.size() - inc.open().size());

    inc.add(ds.records.back());
    EXPECT_EQ(stale_open(inc), 0u);
    inc.close_all();
    EXPECT_EQ(inc.histogram(), batch_histogram(ds));
}

namespace {

using SessionKey = analysis::IncrementalSessions::Key;
using OpenSession = analysis::IncrementalSessions::OpenSession;

/// The batch oracle's sessions of `prefix` split as a checkpoint taken
/// after its last flow must split them: each key's last session is live
/// while the newest start has not passed its end by more than `gap`, and
/// every other session counts in the histogram.
struct OracleCut {
    std::vector<std::pair<SessionKey, OpenSession>> open;  // key-sorted
    std::array<std::uint64_t, analysis::IncrementalSessions::kMaxBucket + 1>
        histogram{};
};

OracleCut oracle_cut(const capture::Dataset& prefix, double gap) {
    constexpr std::size_t kMax = analysis::IncrementalSessions::kMaxBucket;
    const auto sessions = oracle::SessionTable::build(prefix, gap);
    double watermark = 0.0;
    for (const auto& r : prefix.records) watermark = std::max(watermark, r.start);
    OracleCut cut;
    std::map<SessionKey, OpenSession> last_session;
    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        OpenSession open;
        for (const std::uint32_t row : sessions.flows_of(s)) {
            open.last_end = std::max(open.last_end, prefix.records[row].end);
            ++open.flows;
        }
        auto [it, inserted] = last_session.try_emplace(
            {sessions.client[s].value(), sessions.video[s].value()}, open);
        if (!inserted) {
            // Sessions are in start order: the earlier one was split off.
            ++cut.histogram[std::min<std::size_t>(it->second.flows, kMax)];
            it->second = open;
        }
    }
    for (const auto& [key, open] : last_session) {
        if (watermark - open.last_end > gap) {
            ++cut.histogram[std::min<std::size_t>(open.flows, kMax)];
        } else {
            cut.open.emplace_back(key, open);
        }
    }
    return cut;
}

/// Empty when `inc`'s open set and histogram equal the oracle's cut of
/// `prefix`, else what differs.
std::string cut_mismatch(const analysis::IncrementalSessions& inc,
                         const capture::Dataset& prefix) {
    const auto cut = oracle_cut(prefix, inc.gap());
    const auto open = inc.open();
    std::ostringstream os;
    if (inc.histogram() != cut.histogram) os << "histogram differs; ";
    if (open.size() != cut.open.size()) {
        os << "open " << open.size() << " vs oracle " << cut.open.size();
        return os.str();
    }
    for (std::size_t i = 0; i < open.size(); ++i) {
        const auto& [key, session] = open[i];
        const auto& [want_key, want] = cut.open[i];
        if (key != want_key || session.last_end != want.last_end ||
            session.flows != want.flows) {
            os << "open session " << i << " differs";
            break;
        }
    }
    return os.str();
}

/// Start-ordered flows on a quarter-second grid over 150 keys: equal
/// starts, long flows that nest shorter ones of their key, and extensions
/// that start exactly `gap` after their key's latest end.
std::vector<capture::FlowRecord> random_start_ordered(std::uint32_t seed,
                                                      std::size_t n, double gap) {
    std::mt19937 rng(seed);
    const auto pick = [&rng](std::uint32_t k) {
        return std::uniform_int_distribution<std::uint32_t>(0, k - 1)(rng);
    };
    std::vector<capture::FlowRecord> out;
    std::map<SessionKey, double> horizon;  // each key's latest end
    double start = 0.0;
    while (out.size() < n) {
        std::uint32_t client = pick(15);
        std::uint64_t video = pick(10);
        const std::uint32_t step = pick(8);
        start += step < 3 ? 0.0 : 0.25 * step;  // equal starts 3 times in 8
        if (pick(4) == 0) {
            // An extension landing exactly at watermark - last_end == T.
            for (const auto& [key, end] : horizon) {
                if (end + gap >= start) {
                    client = key.first;
                    video = key.second;
                    start = end + gap;
                    break;
                }
            }
        }
        const double length = pick(6) == 0 ? 20.0 : 0.25 * pick(5);  // nests
        out.push_back(flow(client, 0xC0A80101u, start, start + length, 5000, video));
        double& end = horizon[{client, video}];
        end = std::max(end, start + length);
    }
    return out;
}

}  // namespace

TEST(IncrementalSessions, OpenSetAndHistogramMatchTheOracleAtEveryCut) {
    // The checkpoint writes open() and histogram() at any cut, so after
    // every add they must split the sessions as if each closed the moment
    // the watermark passed it, whenever the grouper actually closes it.
    constexpr double kGap = 1.0;
    for (std::uint32_t seed = 1; seed <= 4; ++seed) {
        capture::Dataset prefix;
        analysis::IncrementalSessions inc(kGap);
        for (const auto& r : random_start_ordered(seed, 1200, kGap)) {
            inc.add(r);
            prefix.records.push_back(r);
            const std::string mismatch = cut_mismatch(inc, prefix);
            ASSERT_TRUE(mismatch.empty())
                << "seed " << seed << " after add " << prefix.records.size()
                << ": " << mismatch;
        }
    }

    ytcdn::study::StudyConfig cfg;
    cfg.scale = 0.05;
    auto run = ytcdn::study::run_study(cfg);
    for (auto& ds : run.traces.datasets) {
        ds.sort_by_time();
        capture::Dataset prefix;
        analysis::IncrementalSessions inc;
        for (std::size_t i = 0; i < ds.records.size(); ++i) {
            inc.add(ds.records[i]);
            prefix.records.push_back(ds.records[i]);
            if ((i + 1) % 168 != 0 && i + 1 != ds.records.size()) continue;
            const std::string mismatch = cut_mismatch(inc, prefix);
            ASSERT_TRUE(mismatch.empty())
                << ds.name << " after add " << i + 1 << ": " << mismatch;
        }
    }
}

TEST(IncrementalSessions, HeldSessionsStayWithinTwiceThePeakLiveSet) {
    // Keys that never recur, each expired before the next flow starts: only
    // sweeps close them, and they run before the table holds more than 64.
    analysis::IncrementalSessions lone(1.0);
    constexpr std::uint32_t kLoneFlows = 1'000'000;
    std::size_t peak_held = 0;
    for (std::uint32_t i = 0; i < kLoneFlows; ++i) {
        lone.add(flow(i, 0xC0A80101u, 10.0 * i, 10.0 * i + 1.0, 5000, i));
        peak_held = std::max(peak_held, lone.held_count());
    }
    EXPECT_LE(peak_held, 64u);
    EXPECT_EQ(lone.sessions_closed(), kLoneFlows - 1);
    EXPECT_EQ(lone.open_count(), 1u);

    // Three waves of 12 000 keys, each live at once and expired by the
    // next wave's first start: the grouper holds the expired wave while the
    // next one opens, but never more than twice the live wave. 5 200 keys
    // sit just past a sweep point, where a looser rule would overshoot.
    for (const std::uint32_t keys : {5'200u, 12'000u}) {
        capture::Dataset ds;
        for (std::uint32_t wave = 0; wave < 3; ++wave) {
            for (std::uint32_t i = 0; i < keys; ++i) {
                const double start = 1000.0 * wave + 1e-3 * i;
                ds.records.push_back(flow(0x0A000000u + wave * keys + i, 0xC0A80101u,
                                          start, start + 500.0, 5000, i % 7));
            }
        }
        analysis::IncrementalSessions waves(1.0);
        peak_held = 0;
        for (const auto& r : ds.records) {
            waves.add(r);
            peak_held = std::max(peak_held, waves.held_count());
        }
        EXPECT_GT(peak_held, keys) << keys;
        EXPECT_LE(peak_held, 2 * keys) << keys;
        EXPECT_EQ(waves.open().size(), keys);
        waves.close_all();
        EXPECT_EQ(waves.histogram(), batch_histogram(ds)) << keys;
    }
}

TEST(ServiceAggregates, SectionViiFoldsEachStreamByBytes) {
    // Each stream's preferred DC and shares are the report's by-bytes
    // definition over that stream alone: "eu1" sends most bytes to "near",
    // "us1" to "far", and the out-of-map /24 counts as unmapped.
    const auto map = two_dc_map();
    service::ServiceAggregates agg(1.0);
    EXPECT_NE(agg.render().find("no dc map installed"), std::string::npos);
    agg.set_map(map);
    capture::Dataset eu1;
    capture::Dataset us1;
    for (const auto& r : sample_records()) {
        (r.server_ip.value() >> 8 == 0xC0A801u ? eu1 : us1).records.push_back(r);
    }
    eu1.records.push_back(flow(9, 0xC0A80201u, 90.0, 91.0, 5'000, 9));
    us1.records.push_back(flow(9, 0xC0A80101u, 90.0, 91.0, 5'000, 9));
    us1.records.push_back(flow(9, 0x0A0B0C01u, 92.0, 93.0, 5'000, 9));
    for (const auto& r : eu1.records) agg.add("eu1", r);
    for (const auto& r : us1.records) agg.add("us1", r);

    for (const auto& [name, ds] : {std::pair{"eu1", &eu1}, std::pair{"us1", &us1}}) {
        const auto& stream = agg.streams().at(name);
        const int preferred = analysis::preferred_dc(*ds, map);
        EXPECT_EQ(stream.dc_traffic.preferred(map), preferred) << name;
        const auto batch = analysis::non_preferred_share(*ds, map, preferred);
        const auto share = stream.dc_traffic.share(preferred);
        EXPECT_EQ(share.byte_fraction, batch.byte_fraction) << name;
        EXPECT_EQ(share.flow_fraction, batch.flow_fraction) << name;
    }
    EXPECT_EQ(agg.streams().at("eu1").dc_traffic.preferred(map), 0);
    EXPECT_EQ(agg.streams().at("us1").dc_traffic.preferred(map), 1);
    EXPECT_EQ(agg.streams().at("eu1").unmapped_flows, 0u);
    EXPECT_EQ(agg.streams().at("us1").unmapped_flows, 1u);

    const std::string rendered = agg.render();
    EXPECT_EQ(rendered.find("no dc map installed"), std::string::npos);
    const auto section = rendered.find("== Section VII");
    ASSERT_NE(section, std::string::npos);
    const auto row = [&](const std::string& stream) {
        const auto at = rendered.find('\n' + stream + ' ', section);
        return at == std::string::npos
                   ? std::string()
                   : rendered.substr(at + 1, rendered.find('\n', at + 1) - at - 1);
    };
    EXPECT_NE(row("eu1").find("near"), std::string::npos) << rendered;
    EXPECT_NE(row("us1").find("far"), std::string::npos) << rendered;
}

TEST(IngestQueue, ShedsDeterministicallyAtCapacity) {
    service::IngestQueue queue(2);
    for (std::uint32_t i = 0; i < 5; ++i) {
        service::IngestBatch batch;
        batch.file = "eu1-0001.yfl";
        batch.index = i;
        batch.records.resize(10 + i);
        queue.push(std::move(batch));
    }
    EXPECT_EQ(queue.size(), 2u);
    EXPECT_EQ(queue.peak_size(), 2u);
    ASSERT_EQ(queue.shed().size(), 3u);
    // Tail-drop in arrival order: batches 2, 3, 4 with their record counts.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(queue.shed()[i].batch, i + 2);
        EXPECT_EQ(queue.shed()[i].records, 12 + i);
    }
    EXPECT_EQ(queue.shed_records_total(), 12u + 13u + 14u);
    EXPECT_EQ(queue.pop().index, 0u);  // admitted batches keep FIFO order
    EXPECT_EQ(queue.pop().index, 1u);
}

TEST(IngestQueue, BorrowedSlicesShedByViewAndOutliveTheirSource) {
    const auto records = sample_records();
    service::IngestQueue queue(1);
    {
        auto decoded = std::make_unique<std::vector<capture::FlowRecord>>(records);
        const std::span<const capture::FlowRecord> all(*decoded);
        for (std::uint32_t i = 0; i < 2; ++i) {
            service::IngestBatch batch;
            batch.file = "eu1-0001.yfl";
            batch.index = i;
            batch.slice = all.subspan(i * 30, i == 0 ? 30 : 10);
            queue.push(std::move(batch));
        }
        ASSERT_EQ(queue.shed().size(), 1u);
        EXPECT_EQ(queue.shed()[0].records, 10u);  // the slice's length
        queue.own_slices();
    }  // the decoded records are gone; the queued batch kept a copy
    const service::IngestBatch batch = queue.pop();
    EXPECT_TRUE(batch.slice.empty());
    ASSERT_EQ(batch.view().size(), 30u);
    for (std::size_t i = 0; i < 30; ++i) {
        EXPECT_EQ(batch.view()[i].start, records[i].start);
        EXPECT_EQ(batch.view()[i].client_ip, records[i].client_ip);
    }
}

TEST(ControlProtocol, ParsesEveryVerb) {
    using service::ControlVerb;
    EXPECT_EQ(service::parse_control_line("ping").verb, ControlVerb::Ping);
    EXPECT_EQ(service::parse_control_line("stats").verb, ControlVerb::Stats);
    EXPECT_EQ(service::parse_control_line("render").verb, ControlVerb::Render);
    EXPECT_EQ(service::parse_control_line("snapshot").verb,
              ControlVerb::Snapshot);
    EXPECT_EQ(service::parse_control_line("shutdown").verb,
              ControlVerb::Shutdown);
    EXPECT_EQ(service::parse_control_line("faults clear").verb,
              ControlVerb::FaultsClear);

    // The fault spec is passed through verbatim, spaces and all.
    const auto faults =
        service::parse_control_line("faults read * eio p=0.5 seed=7");
    ASSERT_EQ(faults.verb, ControlVerb::Faults);
    ASSERT_EQ(faults.args.size(), 1u);
    EXPECT_EQ(faults.args[0], "read * eio p=0.5 seed=7");
}

TEST(ControlProtocol, MalformedInputYieldsUnknownWithUsage) {
    using service::ControlVerb;
    EXPECT_EQ(service::parse_control_line("").verb, ControlVerb::Unknown);
    EXPECT_EQ(service::parse_control_line("levitate").verb,
              ControlVerb::Unknown);
    EXPECT_EQ(service::parse_control_line("ping now").verb,
              ControlVerb::Unknown);
    EXPECT_EQ(service::parse_control_line("faults").verb, ControlVerb::Unknown);
    EXPECT_FALSE(service::parse_control_line("levitate").error.empty());
    // The what-if verbs are gone: they get the unknown-command reply.
    const auto drain = service::parse_control_line("drain near");
    EXPECT_EQ(drain.verb, ControlVerb::Unknown);
    EXPECT_EQ(drain.error.rfind("unknown command 'drain'", 0), 0u) << drain.error;
}

TEST(ServiceAggregates, EncodeDecodeRoundtripIsByteStable) {
    service::ServiceAggregates agg(1.0);
    agg.set_map(two_dc_map());
    for (const auto& r : sample_records()) agg.add("eu1", r);
    for (const auto& r : sample_records()) agg.add("us1", r);
    agg.add("us1", flow(9, 0x0A0B0C01u, 92.0, 93.0, 5'000, 9));  // unmapped

    const std::string encoded = agg.encode();
    auto decoded = service::ServiceAggregates::decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error().what();
    EXPECT_EQ(decoded.value().encode(), encoded);
    EXPECT_EQ(decoded.value().render(), agg.render());
    EXPECT_EQ(decoded.value().total_flows(), agg.total_flows());
    EXPECT_EQ(decoded.value().streams().at("us1").unmapped_flows, 1u);

    // Without a map the Section VII section round-trips as "none installed".
    service::ServiceAggregates bare(1.0);
    for (const auto& r : sample_records()) bare.add("eu1", r);
    auto bare_decoded = service::ServiceAggregates::decode(bare.encode());
    ASSERT_TRUE(bare_decoded.ok()) << bare_decoded.error().what();
    EXPECT_FALSE(bare_decoded.value().has_map());
    EXPECT_EQ(bare_decoded.value().render(), bare.render());
}

TEST(ServiceAggregates, DecodeRejectsDamage) {
    service::ServiceAggregates agg(1.0);
    for (const auto& r : sample_records()) agg.add("eu1", r);
    const std::string encoded = agg.encode();

    EXPECT_FALSE(service::ServiceAggregates::decode(
                     std::string_view(encoded).substr(0, encoded.size() / 2))
                     .ok());
    EXPECT_FALSE(service::ServiceAggregates::decode(encoded + "x").ok());

    // A DC tally beyond the map is rejected, not looked up. The payload
    // ends with the last stream's last tally (u32 dc, u64 bytes, u64 video
    // flows) and its u64 unmapped count.
    service::ServiceAggregates mapped(1.0);
    mapped.set_map(two_dc_map());
    for (const auto& r : sample_records()) mapped.add("eu1", r);
    std::string bad = mapped.encode();
    bad[bad.size() - 28] = 7;
    const auto rejected = service::ServiceAggregates::decode(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code(), ytcdn::ErrorCode::BadField);
    EXPECT_NE(std::string(rejected.error().what()).find("beyond the map"),
              std::string::npos)
        << rejected.error().what();

    // Fields that decide session expiry, or that encode() writes in order,
    // are checked. Offsets into the one-stream, map-less payload:
    // version, gap, empty map text, stream count, name, three u64 totals,
    // the three sorted sets, then the watermark, the eight histogram
    // buckets, the open count and the open sessions (u32 client, u64
    // video, f64 last end, u32 flows).
    const auto& summary = agg.streams().at("eu1").summary;
    const std::size_t watermark_at =
        4 + 8 + 4 + 4 + (4 + 3) + 3 * 8 +
        4 * (3 + summary.servers.size() + summary.clients.size() +
             summary.server_slash24s.size());
    const std::size_t open_at = watermark_at + 8 + 8 * 8 + 4;
    constexpr std::size_t kOpenSize = 4 + 8 + 8 + 4;
    ASSERT_GE(agg.streams().at("eu1").sessions.open_count(), 2u);
    const auto with_f64 = [&encoded](std::size_t at, double value) {
        std::string bytes;
        ytcdn::util::put_f64(bytes, value);
        return std::string(encoded).replace(at, 8, bytes);
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::string swapped = encoded;
    std::copy_n(encoded.begin() + open_at, kOpenSize,
                swapped.begin() + open_at + kOpenSize);
    std::copy_n(encoded.begin() + open_at + kOpenSize, kOpenSize,
                swapped.begin() + open_at);
    std::string repeated = encoded;
    std::copy_n(encoded.begin() + open_at, kOpenSize,
                repeated.begin() + open_at + kOpenSize);
    for (const auto& [what, bytes] :
         {std::pair{"NaN gap", with_f64(4, nan)},
          std::pair{"infinite gap", with_f64(4, inf)},
          std::pair{"negative gap", with_f64(4, -1.0)},
          std::pair{"NaN watermark", with_f64(watermark_at, nan)},
          std::pair{"infinite watermark", with_f64(watermark_at, -inf)},
          std::pair{"NaN session end", with_f64(open_at + 12, nan)},
          std::pair{"infinite session end", with_f64(open_at + 12, inf)},
          std::pair{"descending keys", swapped},
          std::pair{"repeated key", repeated}}) {
        const auto damaged = service::ServiceAggregates::decode(bytes);
        ASSERT_FALSE(damaged.ok()) << what;
        EXPECT_EQ(damaged.error().code(), ytcdn::ErrorCode::BadField)
            << what << ": " << damaged.error().what();
    }
    // The offsets are right: an in-range edit still decodes.
    EXPECT_TRUE(service::ServiceAggregates::decode(with_f64(watermark_at, 1e9)).ok());
}

TEST(Spool, ScanOrdersByNameAndSkipsTempFiles) {
    const auto dir = temp_dir("spool_scan");
    ASSERT_TRUE(io::write_file_atomic(dir / "us1-0002.yfl", "x").ok());
    ASSERT_TRUE(io::write_file_atomic(dir / "eu1-0001.tsv", "x").ok());
    ASSERT_TRUE(io::write_file_atomic(dir / "eu1-0001.tsv.corrupt.1", "x").ok());
    ASSERT_TRUE(io::write_file_atomic(dir / "partial.yfl.tmp", "x").ok());
    ASSERT_TRUE(io::write_file_atomic(dir / "notes.txt", "x").ok());

    const auto files = service::scan_spool(dir);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].name, "eu1-0001.tsv");
    EXPECT_EQ(files[1].name, "us1-0002.yfl");
    EXPECT_EQ(service::stream_of("eu1-0001.tsv"), "eu1");
    EXPECT_EQ(service::stream_of("us1.yfl"), "us1");
}

namespace {

/// Spool with three per-stream flow logs and the two-DC map.
void make_spool(const fs::path& spool,
                const std::vector<capture::FlowRecord>& records) {
    fs::create_directories(spool);
    std::vector<capture::FlowRecord> first(records.begin(),
                                           records.begin() + 15);
    std::vector<capture::FlowRecord> second(records.begin() + 15,
                                            records.end());
    capture::write_any_log(spool / "eu1-0001.yfl", first);
    capture::write_any_log(spool / "eu1-0002.yfl", second);
    capture::write_any_log(spool / "us1-0001.tsv", records);
    ASSERT_TRUE(io::write_file_atomic(spool / "vantage.dcmap",
                                      [&](std::ostream& os) {
                                          analysis::write_dc_map(os,
                                                                 two_dc_map());
                                          return static_cast<bool>(os);
                                      })
                    .ok());
}

service::ServiceOptions once_options(const fs::path& spool,
                                     const fs::path& run_dir,
                                     std::size_t threads) {
    service::ServiceOptions opt;
    opt.spool_dir = spool;
    opt.run_dir = run_dir;
    opt.once = true;
    opt.threads = threads;
    opt.tick_ms = 1;
    opt.policy.attempts = 2;
    opt.policy.backoff_s = 0.0;
    return opt;
}

std::string file_bytes(const fs::path& path) {
    auto data = io::read_file(path);
    EXPECT_TRUE(data.ok()) << path;
    return data.ok() ? std::move(data).value() : std::string();
}

}  // namespace

TEST(Determinism, ServiceResume) {
    // The acceptance bar: aggregates and the final checkpoint after (ingest
    // some, stop, resume the rest) are byte-identical to one uninterrupted
    // pass — at parse-pool sizes 1 (the serial interleave), 2 (the smallest
    // pool where decoding runs ahead of folding) and 8.
    const auto records = sample_records();
    std::string reference;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
        const std::string tag = std::to_string(threads);
        const auto base = temp_dir("resume_" + tag);

        // Uninterrupted pass over the full spool.
        make_spool(base / "spool_full", records);
        service::Service full(
            once_options(base / "spool_full", base / "run_full", threads));
        auto full_report = full.run();
        ASSERT_TRUE(full_report.ok()) << full_report.error().what();
        ASSERT_TRUE(full_report.value().clean_shutdown);
        ASSERT_EQ(full_report.value().files_ingested, 3u);
        const std::string uninterrupted =
            file_bytes(full_report.value().aggregates_path);
        ASSERT_FALSE(uninterrupted.empty());

        // Interrupted pass: first only eu1-0001 is spooled, the daemon runs
        // to quiesce (checkpointing), then the rest arrives and a *resumed*
        // daemon ingests it.
        const auto spool = base / "spool_inc";
        fs::create_directories(spool);
        std::vector<capture::FlowRecord> first(records.begin(),
                                               records.begin() + 15);
        capture::write_any_log(spool / "eu1-0001.yfl", first);
        // The dc map must be present from the start: both passes must
        // classify file 1's flows under the same preference state.
        ASSERT_TRUE(io::write_file_atomic(spool / "vantage.dcmap",
                                          [&](std::ostream& os) {
                                              analysis::write_dc_map(
                                                  os, two_dc_map());
                                              return static_cast<bool>(os);
                                          })
                        .ok());
        service::Service partial(
            once_options(spool, base / "run_inc", threads));
        auto partial_report = partial.run();
        ASSERT_TRUE(partial_report.ok()) << partial_report.error().what();
        ASSERT_EQ(partial_report.value().files_ingested, 1u);

        make_spool(spool, records);  // the remaining files (+ dcmap) land
        auto resume_options = once_options(spool, base / "run_inc", threads);
        resume_options.resume = true;
        service::Service resumed(resume_options);
        auto resumed_report = resumed.run();
        ASSERT_TRUE(resumed_report.ok()) << resumed_report.error().what();
        ASSERT_EQ(resumed_report.value().files_ingested, 3u)
            << "resume must not re-ingest the checkpointed file";

        const std::string after_resume =
            file_bytes(resumed_report.value().aggregates_path);
        EXPECT_EQ(after_resume, uninterrupted)
            << "resumed aggregates diverged at threads=" << threads;
        // The open sessions are a function of the ingested flows alone, so
        // the final checkpoints match byte for byte too.
        const auto checkpoint = [](const fs::path& run_dir) {
            return file_bytes(ytcdn::study::checkpoint_path(
                run_dir, ytcdn::study::Stage::Service));
        };
        EXPECT_EQ(checkpoint(base / "run_inc"), checkpoint(base / "run_full"))
            << "resumed checkpoint diverged at threads=" << threads;

        if (reference.empty()) {
            reference = uninterrupted;
        } else {
            EXPECT_EQ(uninterrupted, reference)
                << "aggregates depend on the parse-pool size";
        }
        fs::remove_all(base);
    }
}

TEST(Service, UnusableSpoolDirectoryFails) {
    // A spool below a regular file cannot exist: that is an I/O error, not
    // an empty spool and a successful run over zero files.
    const auto base = temp_dir("unusable_spool");
    ASSERT_TRUE(io::write_file_atomic(base / "file", "not a directory").ok());
    const auto report = service::Service(
        once_options(base / "file" / "spool", base / "run", 1)).run();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error().code(), ytcdn::ErrorCode::Io);
    EXPECT_NE(std::string(report.error().what()).find("spool"), std::string::npos)
        << report.error().what();
    fs::remove_all(base);
}

TEST(Service, CorruptCheckpointCountStartsCold) {
    // A CRC-valid service checkpoint whose ledger count is absurd must be
    // rejected as a truncated payload, not reserve gigabytes on resume.
    const auto base = temp_dir("corrupt_count");
    make_spool(base / "spool", sample_records());
    auto opt = once_options(base / "spool", base / "run", 1);
    opt.resume = true;
    service::Service daemon(opt);
    std::string payload;
    ytcdn::util::put_str32(payload, service::ServiceAggregates(opt.gap_T_s).encode());
    ytcdn::util::put<std::uint32_t>(payload, 0xFFFFFFFFu);
    ASSERT_TRUE(ytcdn::study::write_checkpoint(
                    ytcdn::study::checkpoint_path(opt.run_dir,
                                                  ytcdn::study::Stage::Service),
                    daemon.fingerprint(), ytcdn::study::Stage::Service, payload)
                    .ok());
    auto report = daemon.run();
    ASSERT_TRUE(report.ok()) << report.error().what();
    ASSERT_FALSE(report.value().warnings.empty());
    EXPECT_NE(report.value().warnings.front().find("truncated"), std::string::npos)
        << report.value().warnings.front();
    EXPECT_EQ(report.value().files_ingested, 3u);
    fs::remove_all(base);
}

TEST(Service, OldLayoutCheckpointStartsCold) {
    // Aggregates payloads once carried a live what-if overlay (version 1:
    // policy name, the map, per-DC drained/scale/flows/bytes, six pooled
    // preferred/non-preferred counters, then the streams). Such a checkpoint
    // is still a valid YCK1 frame, so the payload decoder must reject it and
    // the daemon re-ingest every file to the aggregates of a fresh run.
    namespace util = ytcdn::util;
    const auto base = temp_dir("old_layout");
    const auto records = sample_records();
    make_spool(base / "spool", records);
    auto fresh = service::Service(once_options(base / "spool", base / "run_fresh", 1)).run();
    ASSERT_TRUE(fresh.ok()) << fresh.error().what();
    const std::string fresh_aggregates = file_bytes(fresh.value().aggregates_path);

    std::string old;
    util::put<std::uint32_t>(old, 1);
    util::put_f64(old, 1.0);
    util::put_str32(old, "rtt");
    util::put<std::uint8_t>(old, 1);
    std::ostringstream map_text;
    analysis::write_dc_map(map_text, two_dc_map());
    util::put_str32(old, map_text.str());
    util::put<std::uint32_t>(old, 2);
    for (int dc = 0; dc < 2; ++dc) {
        util::put<std::uint8_t>(old, 0);  // drained
        util::put_f64(old, 1.0);          // scale
        util::put<std::uint64_t>(old, 0);
        util::put<std::uint64_t>(old, 0);
    }
    for (int counter = 0; counter < 6; ++counter) util::put<std::uint64_t>(old, 0);
    util::put<std::uint32_t>(old, 0);  // streams

    // The rest of the service state in its unchanged layout: a ledger that
    // claims eu1-0001.yfl, no shed log, no mutations, totals.
    std::string payload;
    util::put_str32(payload, old);
    util::put<std::uint32_t>(payload, 1);
    util::put_str32(payload, "eu1-0001.yfl");
    util::put<std::uint64_t>(payload, 1);
    util::put<std::uint32_t>(payload, 0);
    util::put<std::uint64_t>(payload, 15);
    util::put<std::uint32_t>(payload, 1);
    util::put<std::uint32_t>(payload, 0);
    util::put_str32(payload, "ok");
    util::put<std::uint32_t>(payload, 0);
    util::put<std::uint32_t>(payload, 0);
    util::put<std::uint64_t>(payload, 1);
    util::put<std::uint64_t>(payload, 15);

    auto opt = once_options(base / "spool", base / "run", 1);
    opt.resume = true;
    service::Service daemon(opt);
    ASSERT_TRUE(ytcdn::study::write_checkpoint(
                    ytcdn::study::checkpoint_path(opt.run_dir,
                                                  ytcdn::study::Stage::Service),
                    daemon.fingerprint(), ytcdn::study::Stage::Service, payload)
                    .ok());
    auto report = daemon.run();
    ASSERT_TRUE(report.ok()) << report.error().what();
    ASSERT_FALSE(report.value().warnings.empty());
    const std::string& warning = report.value().warnings.front();
    EXPECT_NE(warning.find("payload rejected"), std::string::npos) << warning;
    EXPECT_NE(warning.find("version 1"), std::string::npos) << warning;
    EXPECT_NE(warning.find("starting cold"), std::string::npos) << warning;
    EXPECT_EQ(report.value().files_ingested, 3u);
    EXPECT_EQ(report.value().records_ingested, 2 * records.size());
    EXPECT_EQ(file_bytes(report.value().aggregates_path), fresh_aggregates);
    fs::remove_all(base);
}

TEST(Service, RefusesResumeUnderDifferentKnobs) {
    const auto base = temp_dir("knobs");
    make_spool(base / "spool", sample_records());
    service::Service first(once_options(base / "spool", base / "run", 1));
    ASSERT_TRUE(first.run().ok());

    auto changed = once_options(base / "spool", base / "run", 1);
    changed.resume = true;
    changed.gap_T_s = 2.0;  // different session rule => different fingerprint
    service::Service second(changed);
    auto report = second.run();
    // The stale checkpoint is quarantined (KeyMismatch), the daemon starts
    // cold and re-ingests everything rather than mixing gap rules.
    ASSERT_TRUE(report.ok()) << report.error().what();
    EXPECT_FALSE(report.value().warnings.empty());
    EXPECT_EQ(report.value().files_ingested, 3u);
    fs::remove_all(base);
}

TEST(Service, OverloadShedsDeterministicallyIntoManifest) {
    const auto base = temp_dir("shed");
    make_spool(base / "spool", sample_records());
    auto opt = once_options(base / "spool", base / "run", 1);
    opt.batch_records = 4;  // 40-record us1 log => 10 batches
    opt.queue_capacity = 2;
    service::Service daemon(opt);
    auto report = daemon.run();
    ASSERT_TRUE(report.ok()) << report.error().what();
    ASSERT_GT(report.value().batches_shed, 0u);

    // Every shed batch is in the manifest — never silent — and a second
    // identical run sheds identically.
    const std::string manifest = file_bytes(report.value().manifest_path);
    std::size_t shed_lines = 0;
    std::istringstream is(manifest);
    for (std::string line; std::getline(is, line);) {
        shed_lines += line.rfind("shed file=", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(shed_lines, report.value().batches_shed);

    const auto base2 = temp_dir("shed2");
    make_spool(base2 / "spool", sample_records());
    auto opt2 = once_options(base2 / "spool", base2 / "run", 1);
    opt2.batch_records = 4;
    opt2.queue_capacity = 2;
    service::Service again(opt2);
    auto report2 = again.run();
    ASSERT_TRUE(report2.ok());
    EXPECT_EQ(file_bytes(report2.value().manifest_path), manifest);
    fs::remove_all(base);
    fs::remove_all(base2);
}

TEST(Service, QuarantinesUnparseableSpoolFilesAndContinues) {
    const auto base = temp_dir("quarantine");
    const auto spool = base / "spool";
    make_spool(spool, sample_records());
    ASSERT_TRUE(
        io::write_file_atomic(spool / "aa-garbage.yfl", "not a flow log").ok());

    service::Service daemon(once_options(spool, base / "run", 1));
    auto report = daemon.run();
    ASSERT_TRUE(report.ok()) << report.error().what();
    EXPECT_EQ(report.value().files_ingested, 4u);  // 3 good + 1 quarantined
    EXPECT_FALSE(report.value().warnings.empty());
    EXPECT_FALSE(fs::exists(spool / "aa-garbage.yfl"));
    EXPECT_TRUE(fs::exists(spool / "aa-garbage.yfl.corrupt.1"));

    // The decode error keeps the spool reader's context chain.
    const std::string path = (spool / "aa-garbage.yfl").string();
    EXPECT_TRUE(std::any_of(
        report.value().warnings.begin(), report.value().warnings.end(),
        [&](const std::string& w) {
            return w.find("spool " + path + ": read_binary_log " + path) !=
                   std::string::npos;
        }))
        << report.value().warnings.front();

    const std::string manifest = file_bytes(report.value().manifest_path);
    EXPECT_NE(manifest.find("status=quarantined"), std::string::npos);
    fs::remove_all(base);
}

namespace {

/// A daemon log that requests a stop as soon as `trigger` has been written
/// to it: a deterministic way to stop the daemon in the middle of a scan.
class StopOnLog : public std::streambuf {
public:
    explicit StopOnLog(std::string trigger) : trigger_(std::move(trigger)) {}

protected:
    int_type overflow(int_type ch) override {
        if (ch != traits_type::eof()) {
            text_ += static_cast<char>(ch);
            if (text_.find(trigger_) != std::string::npos) service::request_stop();
        }
        return ch;
    }

private:
    std::string trigger_;
    std::string text_;
};

}  // namespace

TEST(Service, StopMidScanReplaysTheFilesDecodedAhead) {
    // A stop while a scan is applying files ends the pass after the current
    // file: files the pipeline decoded ahead stay out of the ledger, and a
    // resumed pass applies them, converging to one uninterrupted pass.
    const auto records = sample_records();
    const auto spool_with_bad_file = [&](const fs::path& spool) {
        make_spool(spool, records);
        ASSERT_TRUE(io::write_file_atomic(spool / "eu1-0002-bad.yfl",
                                          "not a flow log")
                        .ok());
    };
    const auto checkpoint = [](const fs::path& run_dir) {
        return file_bytes(ytcdn::study::checkpoint_path(
            run_dir, ytcdn::study::Stage::Service));
    };
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        const auto base = temp_dir("stop_mid_scan_" + std::to_string(threads));
        spool_with_bad_file(base / "spool_full");
        auto full = service::Service(
            once_options(base / "spool_full", base / "run_full", threads)).run();
        ASSERT_TRUE(full.ok()) << full.error().what();
        ASSERT_EQ(full.value().files_ingested, 4u);

        // The second file in name order is the corrupt one; its quarantine
        // warning requests the stop while eu1-0002 and us1-0001 wait.
        const auto spool = base / "spool";
        spool_with_bad_file(spool);
        StopOnLog stop_on_quarantine("quarantined as");
        std::ostream log(&stop_on_quarantine);
        auto options = once_options(spool, base / "run", threads);
        options.log = &log;
        service::clear_stop();
        auto stopped = service::Service(options).run();
        service::clear_stop();
        ASSERT_TRUE(stopped.ok()) << stopped.error().what();
        EXPECT_EQ(stopped.value().files_ingested, 2u) << "threads=" << threads;
        const std::string manifest = file_bytes(stopped.value().manifest_path);
        EXPECT_NE(manifest.find("file eu1-0002-bad.yfl"), std::string::npos);
        EXPECT_EQ(manifest.find("file eu1-0002.yfl"), std::string::npos);
        EXPECT_EQ(manifest.find("file us1-0001.tsv"), std::string::npos);

        options.log = nullptr;
        options.resume = true;
        auto resumed = service::Service(options).run();
        ASSERT_TRUE(resumed.ok()) << resumed.error().what();
        EXPECT_EQ(resumed.value().files_ingested, 4u);
        EXPECT_EQ(file_bytes(resumed.value().aggregates_path),
                  file_bytes(full.value().aggregates_path))
            << "threads=" << threads;
        EXPECT_EQ(checkpoint(base / "run"), checkpoint(base / "run_full"))
            << "threads=" << threads;
        fs::remove_all(base);
    }
}

TEST(Service, IdleDaemonStillPacesItsScans) {
    // Rounds run back to back only while the spool has work: a daemon over
    // an empty spool waits tick_ms before every scan after its first, so
    // about a second at 100 ms is about ten rounds, not thousands.
    const auto base = temp_dir("idle_pacing");
    auto options = once_options(base / "spool", base / "run", 1);
    options.once = false;
    options.tick_ms = 100;
    const auto ticks = [] {
        for (const auto& e : ytcdn::util::metrics::Registry::global().snapshot().entries) {
            if (e.name == "service.ticks") return e.value;
        }
        return std::uint64_t{0};
    };
    const std::uint64_t before = ticks();
    service::clear_stop();
    std::thread stopper([] {  // ytcdn-lint: allow(raw-thread)
        std::this_thread::sleep_for(std::chrono::milliseconds(1000));
        service::request_stop();
    });
    auto report = service::Service(options).run();
    stopper.join();
    service::clear_stop();
    ASSERT_TRUE(report.ok()) << report.error().what();
    const std::uint64_t rounds = ticks() - before;
    EXPECT_GE(rounds, 2u);
    EXPECT_LE(rounds, 15u);
    fs::remove_all(base);
}
