#pragma once

#include <string>
#include <vector>

#include "capture/flow_record.hpp"

namespace ytcdn::capture {

/// The study's record order: by (start, end, client, server). Dataset::
/// sort_by_time sorts by it, and the framing sink orders each run of
/// equal starts by it, so both produce the same log bytes.
[[nodiscard]] bool flow_time_less(const FlowRecord& a, const FlowRecord& b) noexcept;

/// One vantage point's week of YouTube flow records, plus metadata.
/// This is the unit every analysis in the paper operates on.
struct Dataset {
    std::string name;
    std::vector<FlowRecord> records;

    /// Sorts records by flow_time_less; the analyses assume time order
    /// within a client.
    void sort_by_time();
};

}  // namespace ytcdn::capture
