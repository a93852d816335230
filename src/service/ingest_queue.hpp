#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "capture/flow_record.hpp"

namespace ytcdn::service {

/// One admission-controlled unit of ingest: a slice of a spool file. The
/// records are either owned (`records`) or borrowed (`slice`, a view into
/// a decoded file that outlives the batch); view() is whichever is set.
/// The daemon borrows slices of a file it splits and moves a file that
/// fits in one batch into `records`, so admission copies no record.
struct IngestBatch {
    std::string file;          // spool file name (manifest key)
    std::uint32_t index = 0;   // batch index within the file
    std::vector<capture::FlowRecord> records;
    std::span<const capture::FlowRecord> slice;

    [[nodiscard]] std::span<const capture::FlowRecord> view() const noexcept {
        return slice.empty() ? std::span<const capture::FlowRecord>(records)
                             : slice;
    }
};

/// A shed decision — never silent: every drop is recorded here, surfaces in
/// the service manifest, and counts on the service.batches_shed /
/// service.records_shed metrics.
struct ShedRecord {
    std::string file;
    std::uint32_t batch = 0;
    std::uint64_t records = 0;
};

/// Bounded ingest queue with deterministic tail-drop load shedding: a push
/// beyond `capacity` batches sheds the *incoming* batch (the newest data
/// loses, the backlog keeps its admission order), so which batches survive
/// depends only on the input sequence — never on timing. capacity == 0
/// means unbounded (the default: shedding is an explicit overload policy,
/// not a silent default).
class IngestQueue {
public:
    explicit IngestQueue(std::size_t capacity = 0) : capacity_(capacity) {}

    /// True if admitted; false if shed (recorded in shed()).
    bool push(IngestBatch batch);

    [[nodiscard]] bool empty() const noexcept { return queue_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return queue_.size(); }
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] std::size_t peak_size() const noexcept { return peak_; }

    /// Precondition: !empty(). FIFO.
    [[nodiscard]] IngestBatch pop();

    /// Copies each queued batch's borrowed slice into its own `records`,
    /// so the batches may outlive the decoded file they slice.
    void own_slices();

    /// Every shed decision since construction, in admission order.
    [[nodiscard]] const std::vector<ShedRecord>& shed() const noexcept {
        return shed_;
    }
    [[nodiscard]] std::uint64_t shed_records_total() const noexcept;

private:
    std::size_t capacity_;
    std::size_t peak_ = 0;
    std::deque<IngestBatch> queue_;
    std::vector<ShedRecord> shed_;
};

}  // namespace ytcdn::service
