#include "capture/binary_log.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "capture/dataset.hpp"
#include "util/bytes.hpp"
#include "util/crc32.hpp"
#include "util/io.hpp"

namespace ytcdn::capture {

namespace {

constexpr char kMagic[4] = {'Y', 'F', 'L', '2'};
constexpr char kTrailerMagic[4] = {'Y', 'F', 'L', 'E'};
constexpr std::uint32_t kVersion = 2;
// magic + version + count: the shortest stream whose magic and version are
// checked; anything shorter is reported as a truncated header.
constexpr std::size_t kPreambleSize = 4 + 4 + 8;
constexpr std::size_t kHeaderSize = kPreambleSize + 4;  // + header CRC
constexpr std::size_t kRecordSize = 4 + 4 + 8 + 8 + 8 + 8 + 1;
constexpr std::size_t kBlockHeaderSize = 4 + 4;  // records-in-block + CRC
constexpr std::size_t kTrailerSize = 4 + 8 + 4;  // magic + count + CRC
constexpr std::uint64_t kBlockRecords = kLogBlockRecords;
static_assert(kLogFrameBytes == kBlockHeaderSize + kBlockRecords * kRecordSize);

std::uint64_t num_blocks(std::uint64_t n) {
    return (n + kBlockRecords - 1) / kBlockRecords;
}

void put_record(std::string& buf, const FlowRecord& r) {
    util::put<std::uint32_t>(buf, r.client_ip.value());
    util::put<std::uint32_t>(buf, r.server_ip.value());
    util::put_f64(buf, r.start);
    util::put_f64(buf, r.end);
    util::put<std::uint64_t>(buf, r.bytes);
    util::put<std::uint64_t>(buf, r.video.value());
    util::put<std::uint8_t>(buf, static_cast<std::uint8_t>(cdn::itag_of(r.resolution)));
}

/// Parses one 41-byte record, validating field values; the caller has
/// checked that a whole record remains in `in`. `offset` is the record's
/// absolute byte offset in the stream, for provenance.
util::Result<FlowRecord> parse_record(util::ByteReader& in, std::uint64_t index,
                                      std::uint64_t offset) {
    FlowRecord r;
    r.client_ip = net::IpAddress{in.take<std::uint32_t>()};
    r.server_ip = net::IpAddress{in.take<std::uint32_t>()};
    r.start = in.take<double>();
    r.end = in.take<double>();
    r.bytes = in.take<std::uint64_t>();
    r.video = cdn::VideoId{in.take<std::uint64_t>()};
    const auto itag = in.take<std::uint8_t>();
    if (!std::isfinite(r.start) || !std::isfinite(r.end)) {
        return error_at_record(ErrorCode::BadField, "non-finite timestamp",
                               index, offset);
    }
    const auto resolution = cdn::resolution_from_itag(itag);
    if (!resolution) {
        return error_at_record(ErrorCode::BadField,
                               "bad itag " + std::to_string(itag), index, offset);
    }
    r.resolution = *resolution;
    return r;
}

}  // namespace

std::size_t binary_log_size(std::size_t n) noexcept {
    return kHeaderSize + num_blocks(n) * kBlockHeaderSize + n * kRecordSize +
           kTrailerSize;
}

std::string binary_log_header(std::uint64_t count) {
    std::string header(kMagic, sizeof(kMagic));
    util::put<std::uint32_t>(header, kVersion);
    util::put<std::uint64_t>(header, count);
    util::put<std::uint32_t>(header, util::crc32(header));
    return header;
}

std::string binary_log_trailer(std::uint64_t count) {
    std::string trailer(kTrailerMagic, sizeof(kTrailerMagic));
    util::put<std::uint64_t>(trailer, count);
    util::put<std::uint32_t>(trailer, util::crc32(trailer));
    return trailer;
}

bool FlowBlockEncoder::add(const FlowRecord& record) {
    if (block_records_ == 0) {
        frame_.reserve(kLogFrameBytes);
        frame_.assign(kBlockHeaderSize, '\0');
    }
    put_record(frame_, record);
    ++count_;
    return ++block_records_ == kBlockRecords;
}

std::string FlowBlockEncoder::seal() {
    if (block_records_ == 0) return {};
    std::string header;
    util::put<std::uint32_t>(header, block_records_);
    util::put<std::uint32_t>(
        header, util::crc32(std::string_view(frame_).substr(kBlockHeaderSize)));
    frame_.replace(0, kBlockHeaderSize, header);
    // A partial block is the log's last; drop its unused reserve.
    if (block_records_ < kBlockRecords) frame_.shrink_to_fit();
    block_records_ = 0;
    return std::exchange(frame_, {});
}

std::uint64_t log_size(std::span<const std::string> pieces) noexcept {
    std::uint64_t size = 0;
    for (const auto& piece : pieces) size += piece.size();
    return size;
}

std::uint32_t log_crc32(std::span<const std::string> pieces) noexcept {
    std::uint32_t crc = 0;
    for (const auto& piece : pieces) crc = util::crc32(piece, crc);
    return crc;
}

void LogFramingSink::on_flow(const FlowRecord& record) {
    if (!run_.empty() && record.start != run_.front().start) {
        if (record.start < run_.front().start) {
            throw std::logic_error(
                "LogFramingSink: records must arrive in start order");
        }
        flush_run();
    }
    run_.push_back(record);
}

void LogFramingSink::flush_run() {
    std::sort(run_.begin(), run_.end(), flow_time_less);
    for (const auto& r : run_) {
        if (encoder_.add(r)) frames_.push_back(encoder_.seal());
    }
    run_.clear();
}

LogPieces LogFramingSink::finish() {
    flush_run();
    if (std::string last = encoder_.seal(); !last.empty()) {
        frames_.push_back(std::move(last));
    }
    LogPieces log;
    log.reserve(frames_.size() + 2);
    log.push_back(binary_log_header(encoder_.records()));
    std::move(frames_.begin(), frames_.end(), std::back_inserter(log));
    log.push_back(binary_log_trailer(encoder_.records()));
    *this = LogFramingSink();
    return log;
}

std::string write_binary_log_bytes(const std::vector<FlowRecord>& records) {
    std::string buf = binary_log_header(records.size());
    buf.reserve(binary_log_size(records.size()));
    FlowBlockEncoder encoder;
    for (const auto& r : records) {
        if (encoder.add(r)) buf += encoder.seal();
    }
    buf += encoder.seal();
    buf += binary_log_trailer(records.size());
    return buf;
}

void write_binary_log(std::ostream& os, const std::vector<FlowRecord>& records) {
    const std::string buf = write_binary_log_bytes(records);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os) throw Error(ErrorCode::Io, "write_binary_log: stream write failed");
}

void write_binary_log(const std::filesystem::path& path,
                      const std::vector<FlowRecord>& records) {
    util::io::write_file_atomic(path, write_binary_log_bytes(records))
        .context("write_binary_log " + path.string())
        .value_or_throw();
}

bool is_binary_log_bytes(std::string_view bytes) noexcept {
    return bytes.starts_with(std::string_view(kMagic, sizeof kMagic));
}

util::Result<std::vector<FlowRecord>> read_binary_log_bytes(std::string_view bytes) {
    auto reader = FlowLogReader::open_bytes(bytes);
    if (!reader) return std::move(reader).error();
    std::vector<FlowRecord> out;
    out.reserve(reader.value().declared_records());
    std::vector<FlowRecord> block;
    for (;;) {
        auto n = reader.value().next(block);
        if (!n) return std::move(n).error();
        if (n.value() == 0) return out;
        out.insert(out.end(), block.begin(), block.end());
    }
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(std::istream& is) {
    const std::string data{std::istreambuf_iterator<char>(is),
                           std::istreambuf_iterator<char>()};
    return read_binary_log_bytes(data);
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(
    const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("read_binary_log " + path.string()).error();
    }
    return read_binary_log_bytes(data.value())
        .context("read_binary_log " + path.string());
}

std::vector<FlowRecord> read_binary_log(std::istream& is) {
    return read_binary_log_result(is).value_or_throw();
}

std::vector<FlowRecord> read_binary_log(const std::filesystem::path& path) {
    return read_binary_log_result(path).value_or_throw();
}

// --- streaming writer --------------------------------------------------------

util::Result<FlowLogWriter> FlowLogWriter::create(
    const std::filesystem::path& path) {
    auto writer = util::io::FileWriter::create(path);
    if (!writer) {
        return std::move(writer).context("FlowLogWriter " + path.string()).error();
    }
    FlowLogWriter out;
    out.writer_ = std::move(writer).value();
    if (auto r = out.writer_.append(binary_log_header(0)); !r) {
        return std::move(r).context("FlowLogWriter " + path.string()).error();
    }
    return out;
}

util::Result<void> FlowLogWriter::add(const FlowRecord& record) {
    if (!writer_.is_open()) {
        return Error(ErrorCode::Io, "FlowLogWriter: not open");
    }
    if (encoder_.add(record)) return writer_.append(encoder_.seal());
    return {};
}

util::Result<void> FlowLogWriter::finish() {
    if (!writer_.is_open()) {
        return Error(ErrorCode::Io, "FlowLogWriter: not open");
    }
    const std::string where = writer_.path().string();
    const auto fail = [this, &where](Error error) {
        writer_.discard();
        return std::move(error).context("FlowLogWriter " + where);
    };
    if (const std::string last = encoder_.seal(); !last.empty()) {
        if (auto r = writer_.append(last); !r) return fail(std::move(r).error());
    }
    const std::uint64_t count = encoder_.records();
    if (auto r = writer_.append(binary_log_trailer(count)); !r) {
        return fail(std::move(r).error());
    }
    if (auto r = writer_.write_at(0, binary_log_header(count)); !r) {
        return fail(std::move(r).error());
    }
    return writer_.publish().context("FlowLogWriter " + where);
}

// --- streaming reader --------------------------------------------------------

util::Result<FlowLogReader> FlowLogReader::open(const std::filesystem::path& path,
                                                std::size_t chunk_bytes) {
    auto reader = util::io::FileReader::open(path);
    if (!reader) {
        return std::move(reader).context("FlowLogReader " + path.string()).error();
    }
    std::error_code size_ec;
    const std::uint64_t file_size = std::filesystem::file_size(path, size_ec);
    if (size_ec) {
        return Error(ErrorCode::Io, "stat failed for " + path.string() + ": " +
                                        size_ec.message());
    }
    FlowLogReader out;
    out.reader_ = std::move(reader).value();
    out.chunk_ = chunk_bytes == 0 ? 1 : chunk_bytes;
    return start(std::move(out), file_size);
}

util::Result<FlowLogReader> FlowLogReader::open_bytes(std::string_view bytes) {
    FlowLogReader out;
    out.pieces_.push_back(bytes);
    return start(std::move(out), bytes.size());
}

util::Result<FlowLogReader> FlowLogReader::open_pieces(
    std::span<const std::string> pieces) {
    FlowLogReader out;
    out.pieces_.assign(pieces.begin(), pieces.end());
    return start(std::move(out), log_size(pieces));
}

util::Result<FlowLogReader> FlowLogReader::start(FlowLogReader out,
                                                 std::uint64_t size) {
    auto have = out.fill(kPreambleSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated,
                     "truncated header: " + std::to_string(out.window_.size()) +
                         " bytes");
    }
    if (out.window_.substr(0, sizeof(kMagic)) !=
        std::string_view(kMagic, sizeof(kMagic))) {
        return error_at_byte(ErrorCode::BadMagic, "bad magic", 0);
    }
    const auto version =
        util::ByteReader(out.window_.substr(sizeof(kMagic))).take<std::uint32_t>();
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "magic YFL2 with version " + std::to_string(version));
    }
    // Validate the declared count against the whole size before touching
    // any block, so a truncated log fails with CountMismatch here rather
    // than with Truncated from whichever block the tear lands in.
    if (size < kHeaderSize + kTrailerSize) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    have = out.fill(kHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    const std::uint32_t header_crc =
        util::crc32(out.window_.substr(0, kHeaderSize - 4));
    util::ByteReader header(out.window_.substr(sizeof(kMagic) + sizeof(version)));
    out.count_ = header.take<std::uint64_t>();
    if (header.take<std::uint32_t>() != header_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kHeaderSize - 4);
    }
    // Bound the count before size arithmetic so a tampered value cannot
    // overflow binary_log_size into a spurious match.
    if (out.count_ > (size - kHeaderSize - kTrailerSize) / kRecordSize ||
        size != binary_log_size(out.count_)) {
        return Error(ErrorCode::CountMismatch,
                     "v2 size mismatch: declared " + std::to_string(out.count_) +
                         " records (" + std::to_string(binary_log_size(out.count_)) +
                         " bytes), stream holds " + std::to_string(size));
    }
    out.consume(kHeaderSize);
    return out;
}

void FlowLogReader::consume(std::size_t n) noexcept {
    window_.remove_prefix(n);
    abs_ += n;
}

util::Result<bool> FlowLogReader::fill(std::size_t need) {
    if (window_.size() >= need) return true;
    if (reader_.is_open()) {
        // Keep only the unconsumed tail, then read whole chunks until it
        // covers `need`: at most need + chunk_ bytes are ever buffered.
        buf_.erase(0, buf_.size() - window_.size());
        window_ = buf_;
        while (buf_.size() < need) {
            auto n = reader_.read_chunk(buf_, chunk_);
            window_ = buf_;
            if (!n) return std::move(n).error();
            if (n.value() == 0) return false;
        }
        return true;
    }
    // In memory: read the next piece in place when nothing is pending;
    // copy only a range that straddles pieces.
    while (window_.empty() && next_piece_ < pieces_.size()) {
        window_ = pieces_[next_piece_++];
    }
    if (window_.size() >= need) return true;
    std::string joined(window_);
    while (joined.size() < need && next_piece_ < pieces_.size()) {
        joined += pieces_[next_piece_++];
    }
    buf_ = std::move(joined);
    window_ = buf_;
    return buf_.size() >= need;
}

util::Result<std::size_t> FlowLogReader::next(std::vector<FlowRecord>& out) {
    out.clear();
    if (done_) return std::size_t{0};
    if (read_ == count_) return read_trailer();

    const std::uint64_t block = read_ / kBlockRecords;
    const auto expected = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockRecords, count_ - read_));
    auto have = fill(kBlockHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated,
                             "truncated block " + std::to_string(block), abs_);
    }
    util::ByteReader header(window_);
    const auto block_records = header.take<std::uint32_t>();
    const auto block_crc = header.take<std::uint32_t>();
    if (block_records != expected) {
        return error_at_record(
            ErrorCode::CountMismatch,
            "block " + std::to_string(block) + " declares " +
                std::to_string(block_records) + " records, expected " +
                std::to_string(expected),
            read_, abs_);
    }
    const std::size_t payload_size = expected * kRecordSize;
    have = fill(kBlockHeaderSize + payload_size);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated,
                             "stream ends inside block " + std::to_string(block),
                             abs_ + kBlockHeaderSize);
    }
    const std::uint64_t payload_abs = abs_ + kBlockHeaderSize;
    const std::string_view payload =
        window_.substr(kBlockHeaderSize, payload_size);
    if (util::crc32(payload) != block_crc) {
        return error_at_record(
            ErrorCode::ChecksumMismatch,
            "block " + std::to_string(block) + " (records " +
                std::to_string(read_) + ".." +
                std::to_string(read_ + expected - 1) + ") CRC mismatch",
            read_, payload_abs);
    }
    util::ByteReader in(payload);
    out.reserve(expected);
    for (std::size_t i = 0; i < expected; ++i) {
        auto record = parse_record(in, read_ + i, payload_abs + i * kRecordSize);
        if (!record) return std::move(record).error();
        out.push_back(std::move(record).value());
    }
    consume(kBlockHeaderSize + payload_size);
    read_ += expected;
    return expected;
}

util::Result<std::size_t> FlowLogReader::read_trailer() {
    auto have = fill(kTrailerSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated, "truncated v2 trailer", abs_);
    }
    const std::string_view trailer = window_.substr(0, kTrailerSize);
    if (trailer.substr(0, sizeof(kTrailerMagic)) !=
        std::string_view(kTrailerMagic, sizeof(kTrailerMagic))) {
        return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", abs_);
    }
    util::ByteReader in(trailer.substr(sizeof(kTrailerMagic)));
    const auto trailer_count = in.take<std::uint64_t>();
    if (in.take<std::uint32_t>() != util::crc32(trailer.substr(0, kTrailerSize - 4))) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "trailer CRC mismatch",
                             abs_ + kTrailerSize - 4);
    }
    if (trailer_count != count_) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "trailer count " + std::to_string(trailer_count) +
                                 " != header count " + std::to_string(count_),
                             abs_ + sizeof(kTrailerMagic));
    }
    consume(kTrailerSize);
    auto more = fill(1);
    if (!more) return std::move(more).error();
    if (more.value()) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "bytes remain past the trailer", abs_);
    }
    done_ = true;
    return std::size_t{0};
}

}  // namespace ytcdn::capture
