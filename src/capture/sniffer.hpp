#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "capture/classifier.hpp"
#include "capture/flow_record.hpp"
#include "capture/flow_sink.hpp"

namespace ytcdn::capture {

/// Observed flows in emission order, each tagged with the index of the
/// sniffer that saw it: the unit in which the event loop hands flows to DPI
/// when DPI runs behind it (TraceDriver, DESIGN.md §16.1). A flow enters a
/// block as its request fields and no payload bytes; the sniffer renders
/// the request when it classifies the flow. A cleared block keeps its
/// capacity for reuse.
class FlowBlock {
public:
    static constexpr std::size_t kFlows = 128;

    void clear() noexcept { entries_.clear(); }
    /// Copies `flow`. Throws std::invalid_argument if it carries payload
    /// bytes: the view is borrowed, and a block keeps none.
    void add(std::uint8_t source, const ObservedFlow& flow);

    [[nodiscard]] bool full() const noexcept { return entries_.size() >= kFlows; }
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
    [[nodiscard]] std::uint8_t source(std::size_t i) const noexcept {
        return entries_[i].source;
    }
    [[nodiscard]] const ObservedFlow& flow(std::size_t i) const noexcept {
        return entries_[i].flow;
    }

private:
    struct Entry {
        ObservedFlow flow;
        std::uint8_t source = 0;
    };
    std::vector<Entry> entries_;
};

/// Where a sniffer puts the flows it observes when DPI runs elsewhere.
class FlowHandoff {
public:
    virtual ~FlowHandoff() = default;
    /// Takes `flow`, as seen by the sniffer with index `source`. A payload
    /// view is borrowed for the call only.
    virtual void hand_off(std::uint8_t source, const ObservedFlow& flow) = 0;
};

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

    /// Counts one completed flow, then classifies it at once, or hands it
    /// off when a hand-off is installed.
    void observe(const ObservedFlow& flow);

    /// DPI on one observed flow: a flow given as request fields is first
    /// rendered into the sniffer's own buffer, then the payload is parsed
    /// (classify_flow) and the classified record goes to the sink or into
    /// records(). Whoever drains a hand-off calls this for each flow, in
    /// the order they were observed.
    void classify(const ObservedFlow& flow);

    /// Routes observed flows to `handoff` under `source` instead of
    /// classifying them in observe(). Null restores classification in
    /// observe().
    void set_handoff(FlowHandoff* handoff, std::uint8_t source) noexcept {
        handoff_ = handoff;
        source_ = source;
    }

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
    FlowHandoff* handoff_ = nullptr;
    std::uint8_t source_ = 0;
    /// The rendered request of the flow being classified; only classify()
    /// touches it, so it lives on whichever thread runs DPI.
    std::string request_buf_;
    // observe() and classify() may run on different threads (TraceDriver's
    // event lane and its caller); each writes only its own counter.
    std::uint64_t observed_ = 0;
    std::uint64_t classified_ = 0;
};

}  // namespace ytcdn::capture
