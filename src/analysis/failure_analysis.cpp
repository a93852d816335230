#include "analysis/failure_analysis.hpp"

#include <algorithm>

#include "analysis/session.hpp"

namespace ytcdn::analysis {

AsciiTable failure_breakdown_table(
    const std::vector<VantageFailureCounts>& vantages) {
    AsciiTable t({"vantage", "sessions", "failed", "fail%", "timeout", "reset",
                  "dns", "retries", "redirect", "failovers", "servfails",
                  "stale"});
    for (const auto& v : vantages) {
        t.add_row({v.vantage, std::to_string(v.sessions),
                   std::to_string(v.failed_total()), fmt_pct(v.failure_rate()),
                   std::to_string(v.failed_timeout), std::to_string(v.failed_reset),
                   std::to_string(v.failed_dns),
                   std::to_string(v.failed_retries_exhausted),
                   std::to_string(v.failed_redirect_exhausted),
                   std::to_string(v.failovers), std::to_string(v.dns_servfails),
                   std::to_string(v.stale_dns_answers)});
    }
    return t;
}

AsciiTable retry_histogram_table(const std::vector<VantageFailureCounts>& vantages) {
    std::vector<std::string> header{"retries"};
    std::size_t buckets = 0;
    for (const auto& v : vantages) {
        header.push_back(v.vantage);
        buckets = std::max(buckets, v.retry_histogram.size());
    }
    AsciiTable t(std::move(header));
    for (std::size_t k = 0; k < buckets; ++k) {
        std::vector<std::string> row{std::to_string(k)};
        for (const auto& v : vantages) {
            const std::uint64_t n =
                k < v.retry_histogram.size() ? v.retry_histogram[k] : 0;
            row.push_back(std::to_string(n));
        }
        t.add_row(std::move(row));
    }
    return t;
}

OutageByteShift outage_byte_shift(const capture::Dataset& dataset,
                                  const ServerDcMap& map, int preferred,
                                  sim::SimTime t0, sim::SimTime t1) {
    std::uint64_t total[3] = {0, 0, 0};
    std::uint64_t non_preferred[3] = {0, 0, 0};
    for (const auto& r : dataset.records) {
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        const int dc = map.dc_of(r.server_ip);
        if (dc < 0) continue;
        const int window = r.start < t0 ? 0 : (r.start < t1 ? 1 : 2);
        total[window] += r.bytes;
        if (dc != preferred) non_preferred[window] += r.bytes;
    }
    const auto frac = [](std::uint64_t np, std::uint64_t all) {
        return all == 0 ? 0.0
                        : static_cast<double>(np) / static_cast<double>(all);
    };
    OutageByteShift shift;
    shift.before = frac(non_preferred[0], total[0]);
    shift.during = frac(non_preferred[1], total[1]);
    shift.after = frac(non_preferred[2], total[2]);
    shift.bytes_before = total[0];
    shift.bytes_during = total[1];
    shift.bytes_after = total[2];
    return shift;
}

Series hourly_non_preferred_bytes(const capture::Dataset& dataset,
                                  const ServerDcMap& map, int preferred) {
    std::vector<std::uint64_t> all;
    std::vector<std::uint64_t> np;
    for (const auto& r : dataset.records) {
        if (classify_flow_size(r.bytes) != FlowKind::Video) continue;
        const int dc = map.dc_of(r.server_ip);
        if (dc < 0) continue;
        sim::hour_slot(all, r.start) += r.bytes;
        sim::hour_slot(np, r.start) += dc != preferred ? r.bytes : 0;
    }
    Series out;
    out.name = dataset.name + " non-preferred-byte-fraction";
    for (std::size_t h = 0; h < all.size(); ++h) {
        if (all[h] == 0) continue;
        out.points.emplace_back(static_cast<double>(h),
                                static_cast<double>(np[h]) /
                                    static_cast<double>(all[h]));
    }
    return out;
}

}  // namespace ytcdn::analysis
