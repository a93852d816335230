#include "service/ingest_queue.hpp"

#include <algorithm>
#include <utility>

namespace ytcdn::service {

bool IngestQueue::push(IngestBatch batch) {
    if (capacity_ != 0 && queue_.size() >= capacity_) {
        ShedRecord record;
        record.file = batch.file;
        record.batch = batch.index;
        record.records = batch.view().size();
        shed_.push_back(std::move(record));
        return false;
    }
    queue_.push_back(std::move(batch));
    peak_ = std::max(peak_, queue_.size());
    return true;
}

IngestBatch IngestQueue::pop() {
    IngestBatch out = std::move(queue_.front());
    queue_.pop_front();
    return out;
}

void IngestQueue::own_slices() {
    for (auto& batch : queue_) {
        if (batch.slice.empty()) continue;
        batch.records.assign(batch.slice.begin(), batch.slice.end());
        batch.slice = {};
    }
}

std::uint64_t IngestQueue::shed_records_total() const noexcept {
    std::uint64_t total = 0;
    for (const auto& record : shed_) total += record.records;
    return total;
}

}  // namespace ytcdn::service
