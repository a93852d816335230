#pragma once

#include <string>
#include <vector>

#include "capture/flow_record.hpp"

namespace ytcdn::capture {

/// One vantage point's week of YouTube flow records, plus metadata.
/// This is the unit every analysis in the paper operates on.
struct Dataset {
    std::string name;
    std::vector<FlowRecord> records;

    /// Sorts records by (start, end, client, server); the analyses assume
    /// time order within a client.
    void sort_by_time();
};

}  // namespace ytcdn::capture
