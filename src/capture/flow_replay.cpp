#include "capture/flow_replay.hpp"

#include <algorithm>
#include <vector>

#include "capture/binary_log.hpp"

namespace ytcdn::capture {

void FlowReplay::for_each_block(const Visitor& visit) const {
    if (!is_log_) {
        for (std::size_t i = 0; i < records_.size(); i += kLogBlockRecords) {
            visit(records_.subspan(i, std::min(kLogBlockRecords, records_.size() - i)));
        }
        return;
    }
    FlowLogReader reader = FlowLogReader::open_pieces(pieces_).value_or_throw();
    std::vector<FlowRecord> block;
    while (reader.next(block).value_or_throw() != 0) visit(block);
}

}  // namespace ytcdn::capture
