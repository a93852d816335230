#include "capture/sniffer.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "cdn/http.hpp"

namespace ytcdn::capture {

void FlowBlock::add(std::uint8_t source, const ObservedFlow& flow) {
    if (!flow.first_payload.empty()) {
        throw std::invalid_argument(
            "FlowBlock::add: a handed-off flow carries its request as fields, "
            "not as payload bytes");
    }
    entries_.push_back({flow, source});
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
    std::optional<FlowRecord> record;
    if (flow.request) {
        cdn::format_request_to(request_buf_, *flow.request);
        ObservedFlow wire = flow;
        wire.first_payload = request_buf_;
        record = classify_flow(wire);
    } else {
        record = classify_flow(flow);
    }
    if (record) {
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
