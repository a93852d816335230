#include "analysis/session_analysis.hpp"

#include <algorithm>
#include <stdexcept>

namespace ytcdn::analysis {

std::vector<double> flows_per_session_cdf(const SessionTable& sessions,
                                          int max_bucket) {
    if (max_bucket < 1) throw std::invalid_argument("flows_per_session_cdf: max_bucket");
    std::vector<double> counts(static_cast<std::size_t>(max_bucket) + 1, 0.0);
    const std::size_t total = sessions.num_sessions();
    for (std::size_t s = 0; s < total; ++s) {
        const std::size_t n = sessions.flows_of(s).size();
        const std::size_t bucket =
            std::min<std::size_t>(n, static_cast<std::size_t>(max_bucket) + 1) - 1;
        counts[bucket] += 1.0;
    }
    std::vector<double> cdf(counts.size());
    double acc = 0.0;
    const double denom = total == 0 ? 1.0 : static_cast<double>(total);
    for (std::size_t i = 0; i < counts.size(); ++i) {
        acc += counts[i];
        cdf[i] = acc / denom;
    }
    return cdf;
}

namespace {

/// True when every flow of the session is mapped (analysis scope); the
/// pattern breakdowns skip out-of-scope sessions.
bool in_scope(const SessionTable& sessions, std::span<const int> dc, std::size_t s) {
    for (const std::uint32_t row : sessions.flows_of(s)) {
        if (dc[row] < 0) return false;
    }
    return true;
}

}  // namespace

SessionPatternShares session_patterns(const SessionTable& sessions,
                                      std::span<const int> dc, int preferred) {
    SessionPatternShares out;
    std::size_t scoped = 0;
    std::size_t single = 0, single_p = 0, single_np = 0;
    std::size_t two = 0, pp = 0, pn = 0, np = 0, nn = 0;
    std::size_t more = 0;

    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        if (!in_scope(sessions, dc, s)) continue;
        ++scoped;
        const auto flows = sessions.flows_of(s);
        if (flows.size() == 1) {
            ++single;
            if (dc[flows[0]] == preferred) {
                ++single_p;
            } else {
                ++single_np;
            }
        } else if (flows.size() == 2) {
            ++two;
            const bool a = dc[flows[0]] == preferred;
            const bool b = dc[flows[1]] == preferred;
            if (a && b) ++pp;
            else if (a && !b) ++pn;
            else if (!a && b) ++np;
            else ++nn;
        } else {
            ++more;
        }
    }

    out.total_sessions = scoped;
    if (scoped == 0) return out;
    const auto share = [t = static_cast<double>(scoped)](std::size_t c) {
        return static_cast<double>(c) / t;
    };
    out.single_flow = share(single);
    out.single_preferred = share(single_p);
    out.single_non_preferred = share(single_np);
    out.two_flow = share(two);
    out.two_pref_pref = share(pp);
    out.two_pref_nonpref = share(pn);
    out.two_nonpref_pref = share(np);
    out.two_nonpref_nonpref = share(nn);
    out.more_flows = share(more);
    return out;
}

MultiFlowPatternShares multi_flow_patterns(const SessionTable& sessions,
                                           std::span<const int> dc, int preferred) {
    MultiFlowPatternShares out;
    std::size_t scoped_total = 0;
    std::size_t all_pref = 0, first_pref = 0, first_np = 0;
    for (std::size_t s = 0; s < sessions.num_sessions(); ++s) {
        if (!in_scope(sessions, dc, s)) continue;
        ++scoped_total;
        const auto flows = sessions.flows_of(s);
        if (flows.size() < 3) continue;
        ++out.sessions;

        const bool starts_pref = dc[flows.front()] == preferred;
        bool every_pref = starts_pref;
        for (const std::uint32_t row : flows) {
            if (dc[row] != preferred) {
                every_pref = false;
                break;
            }
        }
        if (every_pref) {
            ++all_pref;
        } else if (starts_pref) {
            ++first_pref;
        } else {
            ++first_np;
        }
    }
    if (out.sessions == 0) return out;
    const double n = static_cast<double>(out.sessions);
    out.share_of_all_sessions =
        scoped_total == 0 ? 0.0 : n / static_cast<double>(scoped_total);
    out.all_preferred = static_cast<double>(all_pref) / n;
    out.first_preferred_then_other = static_cast<double>(first_pref) / n;
    out.first_non_preferred = static_cast<double>(first_np) / n;
    return out;
}

}  // namespace ytcdn::analysis
