#include "capture/sniffer.hpp"

#include <utility>

namespace ytcdn::capture {

void FlowBlock::add(std::uint8_t source, const ObservedFlow& flow) {
    Entry& e = entries_.emplace_back();
    e.flow = flow;
    e.flow.first_payload = {};
    e.offset = static_cast<std::uint32_t>(bytes_.size());
    e.size = static_cast<std::uint32_t>(flow.first_payload.size());
    e.source = source;
    bytes_.append(flow.first_payload);
}

ObservedFlow FlowBlock::flow(std::size_t i) const noexcept {
    const Entry& e = entries_[i];
    ObservedFlow flow = e.flow;
    flow.first_payload = std::string_view(bytes_.data() + e.offset, e.size);
    return flow;
}

Sniffer::Sniffer(std::string dataset_name) : name_(std::move(dataset_name)) {}

void Sniffer::observe(const ObservedFlow& flow) {
    ++observed_;
    if (handoff_ != nullptr) {
        handoff_->hand_off(source_, flow);
    } else {
        classify(flow);
    }
}

void Sniffer::classify(const ObservedFlow& flow) {
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
