// ns-per-call probes for the samplers and the DPI classifier whose cost is
// folded into the simulation's self time. Every input is drawn from the
// run's seed; each probe reports the median of several timed batches.

#include <string>
#include <vector>

#include "bench.hpp"
#include "capture/classifier.hpp"
#include "cdn/http.hpp"
#include "sim/arrival_process.hpp"
#include "sim/random.hpp"
#include "sim/zipf.hpp"
#include "workload/population.hpp"

namespace perfbench {

namespace {

namespace yt = ytcdn;

constexpr int kBatches = 5;

/// Keeps probe results observable so the timed calls cannot be elided.
std::uint64_t g_probe_sink = 0;

/// Median ns per call of `calls` invocations of `body(i)` over kBatches.
template <typename F>
double ns_per_call(std::size_t calls, F&& body) {
    std::vector<double> batches;
    for (int b = 0; b < kBatches; ++b) {
        std::uint64_t sink = 0;
        const double t0 = now_s();
        for (std::size_t i = 0; i < calls; ++i) sink += body(i);
        batches.push_back((now_s() - t0) * 1e9 / static_cast<double>(calls));
        g_probe_sink += sink;
    }
    return median(std::move(batches));
}

/// Payloads the DPI must reject: non-HTTP bytes, HTTP to a non-video host,
/// an upload, and a non-playback path on a video host.
const char* const kRejected[] = {
    "\x16\x03\x01\x02\x00\x01\x00\x01\xfc\x03\x03",
    "GET /index.html HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: Mozilla/5.0\r\n\r\n",
    "POST /upload HTTP/1.1\r\nHost: upload.example.org\r\nContent-Length: 512\r\n\r\n",
    "GET /crossdomain.xml HTTP/1.1\r\nHost: v1.lscache1.c.youtube.com\r\n\r\n",
};

}  // namespace

void run_probes(const Options& options, const yt::study::StudyDeployment& world,
                Result& result, LayerSamples& layers) {
    const std::size_t calls = options.tiny ? 20'000 : 400'000;
    yt::sim::Rng rng = yt::sim::Rng(options.seed).fork("perfbench-probes");
    const std::size_t n = world.num_vantage_points();

    // Arrivals: one process per vantage point, built as RequestGenerator does.
    std::vector<yt::sim::ArrivalProcess> arrivals;
    std::vector<double> clock(n, 0.0);
    for (std::size_t v = 0; v < n; ++v) {
        const auto& vp = world.vantage(v);
        arrivals.emplace_back(
            [&vp](yt::sim::SimTime t) {
                return vp.mean_sessions_per_s * vp.profile.multiplier_at(t);
            },
            vp.mean_sessions_per_s * vp.profile.peak_to_mean() * 1.35,
            rng.fork("arrivals-" + vp.name));
    }
    layers.add("sim.arrival_ns", ns_per_call(calls, [&](std::size_t i) {
                   const std::size_t v = i % n;
                   clock[v] = arrivals[v].next_after(clock[v]);
                   if (clock[v] > yt::sim::kWeek) clock[v] = 0.0;
                   return static_cast<std::uint64_t>(clock[v]);
               }),
               "ns");

    const yt::sim::ZipfDistribution zipf(world.catalog().size(),
                                         world.config().zipf_exponent);
    yt::sim::Rng zipf_rng = rng.fork("zipf");
    layers.add("sim.zipf_ns",
               ns_per_call(calls, [&](std::size_t) { return zipf.sample(zipf_rng); }),
               "ns");

    yt::sim::Rng client_rng = rng.fork("clients");
    layers.add("workload.client_sample_ns", ns_per_call(calls, [&](std::size_t i) {
                   return yt::workload::sample_client_index(world.vantage(i % n),
                                                            client_rng);
               }),
               "ns");

    // DPI: alternating video requests (seeded server, video, resolution) and
    // rejected payloads.
    constexpr std::size_t kCorpus = 1024;
    yt::sim::Rng corpus_rng = rng.fork("dpi-corpus");
    std::vector<std::string> payloads;
    for (std::size_t i = 0; i < kCorpus; ++i) {
        if (i % 2 == 1) {
            payloads.emplace_back(kRejected[(i / 2) % std::size(kRejected)]);
            continue;
        }
        const auto server = static_cast<yt::cdn::ServerId>(
            corpus_rng.uniform_index(world.cdn().num_servers()));
        const auto& video = world.catalog().by_rank(zipf.sample(corpus_rng));
        const auto resolution = yt::cdn::kAllResolutions[corpus_rng.uniform_index(
            std::size(yt::cdn::kAllResolutions))];
        std::string payload;
        yt::cdn::format_request_to(
            payload, yt::cdn::VideoRequestView{world.cdn().server(server).hostname(),
                                               video.id, yt::cdn::itag_of(resolution)});
        payloads.push_back(std::move(payload));
    }
    std::uint64_t accepted = 0;
    layers.add("capture.classify_ns", ns_per_call(calls, [&](std::size_t i) {
                   yt::capture::ObservedFlow flow;
                   flow.start = static_cast<double>(i);
                   flow.end = flow.start + 1.0;
                   flow.first_payload = payloads[i % kCorpus];
                   const bool kept = yt::capture::classify_flow(flow).has_value();
                   accepted += kept ? 1 : 0;
                   return static_cast<std::uint64_t>(kept);
               }),
               "ns");
    result.check("DPI probe keeps exactly the video requests",
                 accepted == static_cast<std::uint64_t>(kBatches) * ((calls + 1) / 2));
}

}  // namespace perfbench
