#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/classifier.hpp"
#include "capture/flow_record.hpp"
#include "capture/flow_sink.hpp"

namespace ytcdn::capture {

/// A passive edge sniffer, standing in for Tstat on the probe PC.
///
/// It is attached at a vantage point's edge so it observes every TCP flow
/// between local clients and the outside; DPI picks out the YouTube video
/// flows and appends a flow-log record for each. All other traffic is
/// counted but discarded, like Tstat with only the YouTube module enabled.
class Sniffer {
public:
    explicit Sniffer(std::string dataset_name);

    [[nodiscard]] const std::string& dataset_name() const noexcept { return name_; }

    /// Feeds one completed flow through classification.
    void observe(const ObservedFlow& flow);

    /// Streaming capture: when a sink is installed, classified records are
    /// forwarded to it instead of accumulating in `records_` — the sniffer
    /// then holds no per-flow state and records()/take_records() stay
    /// empty. Classification and the observed/ignored counters are
    /// identical in both modes. Null restores accumulation.
    void set_sink(FlowSink* sink) noexcept { sink_ = sink; }
    [[nodiscard]] bool streaming() const noexcept { return sink_ != nullptr; }

    [[nodiscard]] const std::vector<FlowRecord>& records() const noexcept {
        return records_;
    }
    /// Moves the records out (the sniffer is then empty).
    [[nodiscard]] std::vector<FlowRecord> take_records();

    [[nodiscard]] std::uint64_t flows_observed() const noexcept { return observed_; }
    [[nodiscard]] std::uint64_t flows_classified() const noexcept {
        return classified_;
    }
    [[nodiscard]] std::uint64_t flows_ignored() const noexcept {
        return observed_ - classified_;
    }

private:
    std::string name_;
    std::vector<FlowRecord> records_;
    FlowSink* sink_ = nullptr;
    std::uint64_t observed_ = 0;
    std::uint64_t classified_ = 0;
};

}  // namespace ytcdn::capture
