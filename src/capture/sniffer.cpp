#include "capture/sniffer.hpp"

#include <utility>

namespace ytcdn::capture {

Sniffer::Sniffer(std::string dataset_name) : name_(std::move(dataset_name)) {}

void Sniffer::observe(const ObservedFlow& flow) {
    ++observed_;
    if (auto record = classify_flow(flow)) {
        ++classified_;
        if (sink_ != nullptr) {
            sink_->on_flow(*record);
        } else {
            records_.push_back(*std::move(record));
        }
    }
}

std::vector<FlowRecord> Sniffer::take_records() {
    auto out = std::move(records_);
    records_.clear();
    return out;
}

}  // namespace ytcdn::capture
