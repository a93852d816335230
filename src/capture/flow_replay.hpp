#pragma once

#include <functional>
#include <span>
#include <string>

#include "capture/dataset.hpp"
#include "capture/flow_record.hpp"

namespace ytcdn::capture {

/// One vantage point's records as the folds read them: a record vector (a
/// Dataset) or a YFL2 log held as pieces (LogPieces: the supervised
/// study's week). A view; what it refers to must outlive it.
///
/// Each for_each_block() call replays every record once, in order, in
/// blocks of at most kLogBlockRecords. A log replays through
/// FlowLogReader::open_pieces, block by block with its CRC checks, so no
/// vector of its records is ever built.
class FlowReplay {
public:
    using Visitor = std::function<void(std::span<const FlowRecord>)>;

    // Implicit, so every entry point that takes a FlowReplay also takes
    // the Dataset it views.
    FlowReplay(const Dataset& dataset) noexcept : records_(dataset.records) {}
    explicit FlowReplay(std::span<const std::string> log_pieces) noexcept
        : pieces_(log_pieces), is_log_(true) {}

    /// Throws ytcdn::Error when the log fails to decode.
    void for_each_block(const Visitor& visit) const;

private:
    std::span<const FlowRecord> records_;
    std::span<const std::string> pieces_;
    bool is_log_ = false;
};

}  // namespace ytcdn::capture
