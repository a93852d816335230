#pragma once

#include <cstdint>
#include <filesystem>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "capture/flow_record.hpp"
#include "capture/flow_sink.hpp"
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
/// Decodes a log already in memory (a FlowLogReader over the bytes,
/// drained); both read_binary_log_result overloads go through it.
[[nodiscard]] util::Result<std::vector<FlowRecord>> read_binary_log_bytes(
    std::string_view bytes);

/// True when `bytes` start with the YFL2 magic.
[[nodiscard]] bool is_binary_log_bytes(std::string_view bytes) noexcept;

/// The encoded log, as every writer below publishes it.
[[nodiscard]] std::string write_binary_log_bytes(
    const std::vector<FlowRecord>& records);

void write_binary_log(std::ostream& os, const std::vector<FlowRecord>& records);
/// Atomic (tmp + rename + fsync) when writing to a path: a crashed writer
/// never leaves a torn log under the final name.
void write_binary_log(const std::filesystem::path& path,
                      const std::vector<FlowRecord>& records);

[[nodiscard]] std::vector<FlowRecord> read_binary_log(std::istream& is);
[[nodiscard]] std::vector<FlowRecord> read_binary_log(const std::filesystem::path& path);

/// On-disk size of a v2 log with `n` records, in bytes.
[[nodiscard]] std::size_t binary_log_size(std::size_t n) noexcept;

/// Records per YFL2 block, and the bytes of one full block frame.
inline constexpr std::size_t kLogBlockRecords = 4096;
inline constexpr std::size_t kLogFrameBytes = 8 + kLogBlockRecords * 41;

/// The 20-byte header and the 16-byte trailer of a log of `count` records.
[[nodiscard]] std::string binary_log_header(std::uint64_t count);
[[nodiscard]] std::string binary_log_trailer(std::uint64_t count);

/// Packs records into YFL2 block frames (records-in-block | CRC-32 of the
/// payload | payload), one block at a time, so a log can be written or held
/// frame by frame; every YFL2 writer goes through it.
class FlowBlockEncoder {
public:
    /// Packs `record` into the open block; true once that block holds
    /// kLogBlockRecords records and must be sealed.
    bool add(const FlowRecord& record);
    /// The open block's frame (empty when it holds no record); the next
    /// add() opens a new block.
    [[nodiscard]] std::string seal();
    [[nodiscard]] std::uint64_t records() const noexcept { return count_; }

private:
    std::string frame_;  // block header (patched by seal) + payload so far
    std::uint32_t block_records_ = 0;
    std::uint64_t count_ = 0;
};

/// A YFL2 log held as pieces whose concatenation is the log: the header,
/// one string per block frame and the trailer as LogFramingSink builds it,
/// or a single piece read back from a file.
using LogPieces = std::vector<std::string>;

/// Total bytes, and the CRC-32 chained across the pieces (equal to the
/// CRC-32 of their concatenation).
[[nodiscard]] std::uint64_t log_size(std::span<const std::string> pieces) noexcept;
[[nodiscard]] std::uint32_t log_crc32(std::span<const std::string> pieces) noexcept;

/// Builds the YFL2 log of a start-ordered record stream as block frames, so
/// no buffer the size of the log is ever allocated. The stream must arrive
/// in non-decreasing start order (a Sniffer's, see FlowSink); each run of
/// equal starts is held back and ordered by flow_time_less before it is
/// encoded, so the pieces concatenate to write_binary_log_bytes of the same
/// records after Dataset::sort_by_time. A start that goes backwards throws
/// std::logic_error.
class LogFramingSink final : public FlowSink {
public:
    void on_flow(const FlowRecord& record) override;
    /// Header | frames | trailer; the sink starts over empty.
    [[nodiscard]] LogPieces finish();

private:
    void flush_run();

    std::vector<FlowRecord> run_;  // the records sharing the newest start
    FlowBlockEncoder encoder_;
    LogPieces frames_;
};

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

    [[nodiscard]] std::uint64_t records_written() const noexcept {
        return encoder_.records();
    }
    [[nodiscard]] bool is_open() const noexcept { return writer_.is_open(); }

    /// Flushes the partial block, appends the trailer, patches the header
    /// with the real record count, and durably publishes the final name.
    [[nodiscard]] util::Result<void> finish();
    /// Abandons the log; the final name is never created.
    void discard() { writer_.discard(); }

private:
    util::io::FileWriter writer_;
    FlowBlockEncoder encoder_;
};

/// The one YFL2 decoder. Delivers records one CRC-verified block at a
/// time, either from a file through util::io::FileReader (holding at most
/// a block frame plus one read chunk, however large the log is) or from
/// pieces already in memory (read in place; only a range that straddles
/// two pieces is copied).
/// Errors carry the typed taxonomy (BadMagic / UnsupportedVersion /
/// Truncated / ChecksumMismatch / CountMismatch / BadField) with absolute
/// byte/record provenance; read_binary_log drains this reader, so the
/// batch and streaming entry points fail identically.
class FlowLogReader {
public:
    FlowLogReader() = default;
    FlowLogReader(FlowLogReader&&) noexcept = default;
    FlowLogReader& operator=(FlowLogReader&&) noexcept = default;

    /// Opens the log and validates the header. `chunk_bytes` is the I/O
    /// granularity, one full block frame by default (smaller chunks
    /// exercise more refill boundaries; the chunk-boundary property tests
    /// sweep it).
    [[nodiscard]] static util::Result<FlowLogReader> open(
        const std::filesystem::path& path,
        std::size_t chunk_bytes = kLogFrameBytes);
    /// Reads a log held in memory; `bytes` must outlive the reader. The
    /// view's size stands in for the file size.
    [[nodiscard]] static util::Result<FlowLogReader> open_bytes(
        std::string_view bytes);
    /// Reads a log held as pieces (LogPieces); they must outlive the
    /// reader. Errors and their provenance are those of open_bytes over
    /// the concatenation.
    [[nodiscard]] static util::Result<FlowLogReader> open_pieces(
        std::span<const std::string> pieces);

    /// Replaces `out` with the next block of records (≤ 4096). Returns the
    /// count; 0 means the stream ended cleanly (trailer validated).
    [[nodiscard]] util::Result<std::size_t> next(std::vector<FlowRecord>& out);

    [[nodiscard]] std::uint64_t declared_records() const noexcept { return count_; }
    [[nodiscard]] std::uint64_t records_read() const noexcept { return read_; }

private:
    /// Validates the header against the stream's total `size`.
    [[nodiscard]] static util::Result<FlowLogReader> start(FlowLogReader out,
                                                           std::uint64_t size);
    /// Makes `need` unconsumed bytes contiguous in window_; false at end
    /// of stream.
    [[nodiscard]] util::Result<bool> fill(std::size_t need);
    void consume(std::size_t n) noexcept;
    [[nodiscard]] util::Result<std::size_t> read_trailer();

    util::io::FileReader reader_;          // closed when reading pieces
    std::vector<std::string_view> pieces_;  // the in-memory log
    std::size_t next_piece_ = 0;
    std::string buf_;          // file chunks, or a range spanning pieces
    std::string_view window_;  // unconsumed bytes: a suffix of buf_ or a piece
    std::uint64_t abs_ = 0;    // absolute stream offset of window_'s start
    std::size_t chunk_ = kLogFrameBytes;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
    bool done_ = false;
};

}  // namespace ytcdn::capture
