#pragma once

#include <span>
#include <vector>

#include "analysis/session.hpp"

namespace ytcdn::analysis {

/// Fig. 5 / Fig. 6: CDF of the number of flows per session. Element i is
/// P(num_flows <= i+1); the final element covers ">max_bucket" and is 1.
[[nodiscard]] std::vector<double> flows_per_session_cdf(const SessionTable& sessions,
                                                        int max_bucket = 9);

/// Fig. 10: breakdown of sessions by how many flows they have and whether
/// each flow went to the preferred data center. All values are fractions of
/// the *total* number of (scoped) sessions, matching the paper's bars.
struct SessionPatternShares {
    double single_flow = 0.0;            // sessions with exactly one flow
    double single_preferred = 0.0;       //   ... to the preferred DC
    double single_non_preferred = 0.0;   //   ... to a non-preferred DC
    double two_flow = 0.0;               // sessions with exactly two flows
    double two_pref_pref = 0.0;          //   (preferred, preferred)
    double two_pref_nonpref = 0.0;       //   (preferred, non-preferred)
    double two_nonpref_pref = 0.0;       //   (non-preferred, preferred)
    double two_nonpref_nonpref = 0.0;    //   (non-preferred, non-preferred)
    double more_flows = 0.0;             // sessions with three or more flows
    std::size_t total_sessions = 0;      // denominator (scoped sessions)
};

/// Computes the Fig. 10 shares; `dc` is the sessions' dataset's dc_column.
/// Sessions containing any flow to a server outside the mapped analysis
/// scope (legacy ASes, dc < 0) are excluded, following the paper's Section
/// IV filter.
[[nodiscard]] SessionPatternShares session_patterns(const SessionTable& sessions,
                                                    std::span<const int> dc,
                                                    int preferred);

/// Section VI-C's closing observation: sessions with more than 2 flows
/// (5.18-10% of sessions) "show similar trends to 2-flow sessions" — for
/// the EU1 datasets a significant fraction starts at the preferred data
/// center and is redirected away. Fractions are of the >2-flow sessions.
struct MultiFlowPatternShares {
    std::size_t sessions = 0;                  // scoped sessions with >= 3 flows
    double share_of_all_sessions = 0.0;        // paper: 5.18-10%
    double all_preferred = 0.0;                // every flow at the preferred DC
    double first_preferred_then_other = 0.0;   // starts preferred, leaves
    double first_non_preferred = 0.0;          // DNS already sent it away
};

[[nodiscard]] MultiFlowPatternShares multi_flow_patterns(const SessionTable& sessions,
                                                         std::span<const int> dc,
                                                         int preferred);

}  // namespace ytcdn::analysis
