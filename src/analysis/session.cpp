#include "analysis/session.hpp"

#include <algorithm>

namespace ytcdn::analysis {

std::vector<int> dc_column(const capture::Dataset& dataset, const ServerDcMap& map) {
    std::vector<int> dc;
    dc.reserve(dataset.records.size());
    for (const auto& r : dataset.records) dc.push_back(map.dc_of(r.server_ip));
    return dc;
}

SessionTable SessionTable::build(const capture::Dataset& dataset, double gap_T_s) {
    const auto& rec = dataset.records;
    const std::size_t n = rec.size();
    std::vector<std::uint32_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    // One global sort groups the records: rows of the same (client, video)
    // key become contiguous, ordered by (start, end) within the key. The
    // row-index tiebreak makes the permutation deterministic.
    std::sort(order.begin(), order.end(), [&rec](std::uint32_t a, std::uint32_t b) {
        const auto& x = rec[a];
        const auto& y = rec[b];
        if (x.client_ip != y.client_ip) return x.client_ip < y.client_ip;
        if (x.video != y.video) return x.video < y.video;
        if (x.start != y.start) return x.start < y.start;
        if (x.end != y.end) return x.end < y.end;
        return a < b;
    });

    // Sessions are contiguous slices [lo, hi) of `order`; collect the slice
    // bounds, then order sessions by (start, client, video).
    struct Slice {
        sim::SimTime start;
        net::IpAddress client;
        cdn::VideoId video;
        std::uint32_t lo, hi;
    };
    std::vector<Slice> slices;
    std::size_t i = 0;
    while (i < n) {
        const net::IpAddress client = rec[order[i]].client_ip;
        const cdn::VideoId video = rec[order[i]].video;
        std::size_t key_end = i + 1;
        while (key_end < n && rec[order[key_end]].client_ip == client &&
               rec[order[key_end]].video == video) {
            ++key_end;
        }
        // Split the key's run at gaps, tracking the furthest end seen so
        // far: flows can nest (a long video flow can outlive a short control
        // flow started after it).
        std::size_t lo = i;
        double horizon = rec[order[i]].end;
        for (std::size_t j = i + 1; j < key_end; ++j) {
            const auto& r = rec[order[j]];
            if (r.start - horizon > gap_T_s) {
                slices.push_back({rec[order[lo]].start, client, video,
                                  static_cast<std::uint32_t>(lo),
                                  static_cast<std::uint32_t>(j)});
                lo = j;
                horizon = r.end;
            } else {
                horizon = std::max(horizon, r.end);
            }
        }
        slices.push_back({rec[order[lo]].start, client, video,
                          static_cast<std::uint32_t>(lo),
                          static_cast<std::uint32_t>(key_end)});
        i = key_end;
    }

    std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
        if (a.start != b.start) return a.start < b.start;
        if (a.client != b.client) return a.client < b.client;
        return a.video < b.video;
    });

    SessionTable t;
    t.offsets.reserve(slices.size() + 1);
    t.flow_rows.reserve(n);
    t.client.reserve(slices.size());
    t.video.reserve(slices.size());
    t.start.reserve(slices.size());
    t.offsets.push_back(0);
    for (const auto& s : slices) {
        for (std::uint32_t j = s.lo; j < s.hi; ++j) t.flow_rows.push_back(order[j]);
        t.offsets.push_back(static_cast<std::uint32_t>(t.flow_rows.size()));
        t.client.push_back(s.client);
        t.video.push_back(s.video);
        t.start.push_back(s.start);
    }
    return t;
}

std::vector<ResolutionShare> resolution_breakdown(const capture::Dataset& dataset) {
    std::vector<ResolutionShare> out;
    out.reserve(std::size(cdn::kAllResolutions));
    for (const auto r : cdn::kAllResolutions) {
        out.push_back(ResolutionShare{r, 0.0, 0.0});
    }
    std::uint64_t flows = 0;
    std::uint64_t bytes = 0;
    for (const auto& r : dataset.records) {
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        auto& share = out[static_cast<std::size_t>(r.resolution)];
        share.flow_share += 1.0;
        share.byte_share += static_cast<double>(r.bytes);
        ++flows;
        bytes += r.bytes;
    }
    for (auto& share : out) {
        if (flows > 0) share.flow_share /= static_cast<double>(flows);
        if (bytes > 0) share.byte_share /= static_cast<double>(bytes);
    }
    return out;
}

}  // namespace ytcdn::analysis
