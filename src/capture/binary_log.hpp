#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

#include "capture/flow_record.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

namespace ytcdn::capture {

/// Compact checksummed binary flow-log format ("YFL2").
///
/// At paper scale a week of flow records runs to hundreds of MB as TSV;
/// the binary form is ~41 bytes per record and loss-free. v2 adds CRC32
/// framing so a flipped bit on disk is detected at load time with the
/// record index and byte offset of the damage. Layout (little-endian):
///
///   header:   magic "YFL2" | u32 version (=2) | u64 record count |
///             u32 crc32 of the preceding 16 header bytes
///   blocks:   records in blocks of up to 4096:
///             u32 records-in-block | u32 crc32 of the block payload |
///             payload (records-in-block * 41 bytes)
///   record:   u32 client_ip | u32 server_ip | f64 start | f64 end |
///             u64 bytes | u64 video_id | u8 itag
///   trailer:  magic "YFLE" | u64 record count | u32 crc32 of the
///             preceding 12 trailer bytes
///
/// The *_result functions return a typed ytcdn::Error (code + byte-offset /
/// record-index provenance) instead of throwing; the legacy-named entry
/// points are thin wrappers that throw that same Error (which derives
/// std::runtime_error, so existing catch sites are unaffected).
[[nodiscard]] util::Result<std::vector<FlowRecord>> read_binary_log_result(
    std::istream& is);
[[nodiscard]] util::Result<std::vector<FlowRecord>> read_binary_log_result(
    const std::filesystem::path& path);

/// Atomic (tmp + rename + fsync) when writing to a path: a crashed writer
/// never leaves a torn log under the final name.
[[nodiscard]] util::Result<void> write_binary_log_result(
    const std::filesystem::path& path, const std::vector<FlowRecord>& records);

void write_binary_log(std::ostream& os, const std::vector<FlowRecord>& records);
void write_binary_log(const std::filesystem::path& path,
                      const std::vector<FlowRecord>& records);

[[nodiscard]] std::vector<FlowRecord> read_binary_log(std::istream& is);
[[nodiscard]] std::vector<FlowRecord> read_binary_log(const std::filesystem::path& path);

/// On-disk size of a v2 log with `n` records, in bytes.
[[nodiscard]] std::size_t binary_log_size(std::size_t n) noexcept;

/// Streaming v2 writer with bounded memory: records append through a
/// one-block (4096-record) buffer, the header is written up front with a
/// zero count and back-filled on finish(), and the file only appears under
/// its final name after a durable publish — so a crashed spill run leaves
/// no torn log behind. The published bytes are identical to
/// write_binary_log of the same record sequence (pinned by the golden
/// tests), which is what lets the out-of-core pipeline (DESIGN.md §16)
/// spill a 10M-session week without ever materializing it.
class FlowLogWriter {
public:
    FlowLogWriter() = default;
    FlowLogWriter(FlowLogWriter&&) noexcept = default;
    FlowLogWriter& operator=(FlowLogWriter&&) noexcept = default;

    [[nodiscard]] static util::Result<FlowLogWriter> create(
        const std::filesystem::path& path);

    [[nodiscard]] util::Result<void> add(const FlowRecord& record);

    [[nodiscard]] std::uint64_t records_written() const noexcept { return count_; }
    [[nodiscard]] bool is_open() const noexcept { return writer_.is_open(); }

    /// Flushes the partial block, appends the trailer, patches the header
    /// with the real record count, and durably publishes the final name.
    [[nodiscard]] util::Result<void> finish();
    /// Abandons the log; the final name is never created.
    void discard() { writer_.discard(); }

private:
    [[nodiscard]] util::Result<void> flush_block();

    util::io::FileWriter writer_;
    std::string block_;
    std::uint32_t block_records_ = 0;
    std::uint64_t count_ = 0;
};

/// Incremental flow-log reader: delivers records one CRC-verified block at
/// a time through util::io::FileReader, holding O(block) memory however
/// large the log is. Reports the same typed error taxonomy as
/// read_binary_log (BadMagic / UnsupportedVersion / Truncated /
/// ChecksumMismatch / CountMismatch / BadField) with absolute
/// byte/record provenance — the golden fuzz
/// fixtures pin that the two readers fail identically.
class FlowLogReader {
public:
    FlowLogReader() = default;
    FlowLogReader(FlowLogReader&&) noexcept = default;
    FlowLogReader& operator=(FlowLogReader&&) noexcept = default;

    /// Opens the log and validates the header. `chunk_bytes` is the I/O
    /// granularity (smaller chunks exercise more refill boundaries; the
    /// chunk-boundary property tests sweep it).
    [[nodiscard]] static util::Result<FlowLogReader> open(
        const std::filesystem::path& path, std::size_t chunk_bytes = 1 << 20);

    /// Replaces `out` with the next block of records (≤ 4096). Returns the
    /// count; 0 means the stream ended cleanly (trailer validated).
    [[nodiscard]] util::Result<std::size_t> next(std::vector<FlowRecord>& out);

    [[nodiscard]] std::uint64_t declared_records() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t records_read() const noexcept { return read_; }

private:
    [[nodiscard]] util::Result<bool> fill(std::size_t need);

    util::io::FileReader reader_;
    std::string buf_;
    std::size_t pos_ = 0;        // unconsumed bytes start here in buf_
    std::uint64_t abs_ = 0;      // absolute stream offset of buf_[pos_]
    std::size_t chunk_ = 1 << 20;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    bool done_ = false;
};

}  // namespace ytcdn::capture
