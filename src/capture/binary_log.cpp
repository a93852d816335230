#include "capture/binary_log.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "util/atomic_file.hpp"
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
constexpr std::uint64_t kBlockRecords = 4096;

static_assert(std::endian::native == std::endian::little,
              "binary log assumes a little-endian host");

template <typename T>
void put(std::string& buf, T value) {
    const auto old = buf.size();
    buf.resize(old + sizeof(T));
    std::memcpy(buf.data() + old, &value, sizeof(T));
}

template <typename T>
T take(const char*& p) {
    T value;
    std::memcpy(&value, p, sizeof(T));
    p += sizeof(T);
    return value;
}

std::uint64_t num_blocks(std::uint64_t n) {
    return (n + kBlockRecords - 1) / kBlockRecords;
}

void put_record(std::string& buf, const FlowRecord& r) {
    put<std::uint32_t>(buf, r.client_ip.value());
    put<std::uint32_t>(buf, r.server_ip.value());
    put<double>(buf, r.start);
    put<double>(buf, r.end);
    put<std::uint64_t>(buf, r.bytes);
    put<std::uint64_t>(buf, r.video.value());
    put<std::uint8_t>(buf, static_cast<std::uint8_t>(cdn::itag_of(r.resolution)));
}

/// Parses one 41-byte record, validating field values. `offset` is the
/// record's absolute byte offset in the stream, for provenance.
util::Result<FlowRecord> parse_record(const char* p, std::uint64_t index,
                                      std::uint64_t offset) {
    FlowRecord r;
    r.client_ip = net::IpAddress{take<std::uint32_t>(p)};
    r.server_ip = net::IpAddress{take<std::uint32_t>(p)};
    r.start = take<double>(p);
    r.end = take<double>(p);
    if (!std::isfinite(r.start) || !std::isfinite(r.end)) {
        return error_at_record(ErrorCode::BadField, "non-finite timestamp",
                               index, offset);
    }
    r.bytes = take<std::uint64_t>(p);
    r.video = cdn::VideoId{take<std::uint64_t>(p)};
    const auto itag = take<std::uint8_t>(p);
    const auto resolution = cdn::resolution_from_itag(itag);
    if (!resolution) {
        return error_at_record(ErrorCode::BadField,
                               "bad itag " + std::to_string(itag), index, offset);
    }
    r.resolution = *resolution;
    return r;
}

util::Result<std::vector<FlowRecord>> parse_v2(const std::string& data) {
    if (data.size() < kHeaderSize + kTrailerSize) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    const std::uint32_t header_crc =
        util::crc32(std::string_view(data).substr(0, kHeaderSize - 4));
    const char* p = data.data() + sizeof(kMagic) + sizeof(std::uint32_t);
    const auto count = take<std::uint64_t>(p);
    if (take<std::uint32_t>(p) != header_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kHeaderSize - 4);
    }
    // Bound the count before size arithmetic so a tampered value cannot
    // overflow binary_log_size into a spurious match.
    if (count > (data.size() - kHeaderSize - kTrailerSize) / kRecordSize ||
        data.size() != binary_log_size(count)) {
        return Error(ErrorCode::CountMismatch,
                     "v2 size mismatch: declared " + std::to_string(count) +
                         " records (" + std::to_string(binary_log_size(count)) +
                         " bytes), stream holds " + std::to_string(data.size()));
    }

    std::vector<FlowRecord> out;
    out.reserve(count);
    std::uint64_t offset = kHeaderSize;
    std::uint64_t record_index = 0;
    for (std::uint64_t block = 0; block < num_blocks(count); ++block) {
        const std::uint64_t expected =
            std::min<std::uint64_t>(kBlockRecords, count - record_index);
        const char* bp = data.data() + offset;
        const auto block_records = take<std::uint32_t>(bp);
        const auto block_crc = take<std::uint32_t>(bp);
        if (block_records != expected) {
            return error_at_record(
                ErrorCode::CountMismatch,
                "block " + std::to_string(block) + " declares " +
                    std::to_string(block_records) + " records, expected " +
                    std::to_string(expected),
                record_index, offset);
        }
        const std::uint64_t payload_offset = offset + kBlockHeaderSize;
        const std::uint64_t payload_size = expected * kRecordSize;
        const std::uint32_t actual_crc = util::crc32(
            std::string_view(data).substr(payload_offset, payload_size));
        if (actual_crc != block_crc) {
            return error_at_record(
                ErrorCode::ChecksumMismatch,
                "block " + std::to_string(block) + " (records " +
                    std::to_string(record_index) + ".." +
                    std::to_string(record_index + expected - 1) + ") CRC mismatch",
                record_index, payload_offset);
        }
        for (std::uint64_t i = 0; i < expected; ++i) {
            const std::uint64_t record_offset = payload_offset + i * kRecordSize;
            auto record =
                parse_record(data.data() + record_offset, record_index, record_offset);
            if (!record) return record.error();
            out.push_back(std::move(record).value());
            ++record_index;
        }
        offset = payload_offset + payload_size;
    }

    const char* tp = data.data() + offset;
    if (std::memcmp(tp, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
        return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", offset);
    }
    tp += sizeof(kTrailerMagic);
    const auto trailer_count = take<std::uint64_t>(tp);
    const std::uint32_t trailer_crc = util::crc32(
        std::string_view(data).substr(offset, kTrailerSize - 4));
    if (take<std::uint32_t>(tp) != trailer_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "trailer CRC mismatch",
                             offset + kTrailerSize - 4);
    }
    if (trailer_count != count) {
        return error_at_byte(ErrorCode::CountMismatch,
                             "trailer count " + std::to_string(trailer_count) +
                                 " != header count " + std::to_string(count),
                             offset + sizeof(kTrailerMagic));
    }
    return out;
}

std::string serialize_v2(const std::vector<FlowRecord>& records) {
    std::string buf;
    buf.reserve(binary_log_size(records.size()));
    buf.append(kMagic, sizeof(kMagic));
    put<std::uint32_t>(buf, kVersion);
    put<std::uint64_t>(buf, records.size());
    put<std::uint32_t>(buf, util::crc32(buf));

    std::size_t i = 0;
    while (i < records.size()) {
        const std::size_t n =
            std::min<std::size_t>(kBlockRecords, records.size() - i);
        std::string payload;
        payload.reserve(n * kRecordSize);
        for (std::size_t k = 0; k < n; ++k) put_record(payload, records[i + k]);
        put<std::uint32_t>(buf, static_cast<std::uint32_t>(n));
        put<std::uint32_t>(buf, util::crc32(payload));
        buf += payload;
        i += n;
    }

    std::string trailer(kTrailerMagic, sizeof(kTrailerMagic));
    put<std::uint64_t>(trailer, records.size());
    put<std::uint32_t>(trailer, util::crc32(trailer));
    buf += trailer;
    return buf;
}

}  // namespace

std::size_t binary_log_size(std::size_t n) noexcept {
    return kHeaderSize + num_blocks(n) * kBlockHeaderSize + n * kRecordSize +
           kTrailerSize;
}

void write_binary_log(std::ostream& os, const std::vector<FlowRecord>& records) {
    const std::string buf = serialize_v2(records);
    os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!os) throw Error(ErrorCode::Io, "write_binary_log: stream write failed");
}

util::Result<void> write_binary_log_result(const std::filesystem::path& path,
                                           const std::vector<FlowRecord>& records) {
    return util::atomic_write_file(path, serialize_v2(records))
        .context("write_binary_log " + path.string());
}

void write_binary_log(const std::filesystem::path& path,
                      const std::vector<FlowRecord>& records) {
    write_binary_log_result(path, records).value_or_throw();
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(std::istream& is) {
    std::string data{std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>()};
    if (data.size() < kPreambleSize) {
        return Error(ErrorCode::Truncated,
                     "truncated header: " + std::to_string(data.size()) + " bytes");
    }
    if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
        return error_at_byte(ErrorCode::BadMagic, "bad magic", 0);
    }
    const char* p = data.data() + sizeof(kMagic);
    const auto version = take<std::uint32_t>(p);
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "magic YFL2 with version " + std::to_string(version));
    }
    return parse_v2(data);
}

util::Result<std::vector<FlowRecord>> read_binary_log_result(
    const std::filesystem::path& path) {
    auto data = util::io::read_file(path);
    if (!data) {
        return std::move(data).context("read_binary_log " + path.string()).error();
    }
    std::istringstream is(std::move(data).value());
    return read_binary_log_result(is).context("read_binary_log " + path.string());
}

std::vector<FlowRecord> read_binary_log(std::istream& is) {
    return read_binary_log_result(is).value_or_throw();
}

std::vector<FlowRecord> read_binary_log(const std::filesystem::path& path) {
    return read_binary_log_result(path).value_or_throw();
}

// --- streaming writer --------------------------------------------------------

namespace {

/// The 20-byte v2 header for `count` records (shared by the up-front
/// zero-count write and the finish()-time patch, so both take the exact
/// serialize_v2 layout).
std::string v2_header(std::uint64_t count) {
    std::string header(kMagic, sizeof(kMagic));
    put<std::uint32_t>(header, kVersion);
    put<std::uint64_t>(header, count);
    put<std::uint32_t>(header, util::crc32(header));
    return header;
}

}  // namespace

util::Result<FlowLogWriter> FlowLogWriter::create(
    const std::filesystem::path& path) {
    auto writer = util::io::FileWriter::create(path);
    if (!writer) {
        return std::move(writer).context("FlowLogWriter " + path.string()).error();
    }
    FlowLogWriter out;
    out.writer_ = std::move(writer).value();
    out.block_.reserve(kBlockRecords * kRecordSize);
    if (auto r = out.writer_.append(v2_header(0)); !r) {
        return std::move(r).context("FlowLogWriter " + path.string()).error();
    }
    return out;
}

util::Result<void> FlowLogWriter::flush_block() {
    if (block_records_ == 0) return {};
    std::string frame;
    frame.reserve(kBlockHeaderSize + block_.size());
    put<std::uint32_t>(frame, block_records_);
    put<std::uint32_t>(frame, util::crc32(block_));
    frame += block_;
    block_.clear();
    block_records_ = 0;
    return writer_.append(frame);
}

util::Result<void> FlowLogWriter::add(const FlowRecord& record) {
    if (!writer_.is_open()) {
        return Error(ErrorCode::Io, "FlowLogWriter: not open");
    }
    put_record(block_, record);
    ++block_records_;
    ++count_;
    if (block_records_ == kBlockRecords) return flush_block();
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
    if (auto r = flush_block(); !r) return fail(std::move(r).error());
    std::string trailer(kTrailerMagic, sizeof(kTrailerMagic));
    put<std::uint64_t>(trailer, count_);
    put<std::uint32_t>(trailer, util::crc32(trailer));
    if (auto r = writer_.append(trailer); !r) return fail(std::move(r).error());
    if (auto r = writer_.write_at(0, v2_header(count_)); !r) {
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
    // The batch parser sees the whole stream at once and validates the
    // declared count against the total size *before* touching any block;
    // replicating that check here (from the file's stat size) keeps the two
    // readers' error taxonomies identical — a truncated log fails with the
    // same CountMismatch either way, not Truncated from whichever block the
    // incremental reader happened to be in.
    std::error_code size_ec;
    const std::uint64_t file_size = std::filesystem::file_size(path, size_ec);
    if (size_ec) {
        return Error(ErrorCode::Io, "stat failed for " + path.string() + ": " +
                                        size_ec.message());
    }

    FlowLogReader out;
    out.reader_ = std::move(reader).value();
    out.chunk_ = chunk_bytes == 0 ? 1 : chunk_bytes;

    auto have = out.fill(kPreambleSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated,
                     "truncated header: " +
                         std::to_string(out.buf_.size() - out.pos_) + " bytes");
    }
    const char* p = out.buf_.data() + out.pos_;
    if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
        return error_at_byte(ErrorCode::BadMagic, "bad magic", 0);
    }
    p += sizeof(kMagic);
    const auto version = take<std::uint32_t>(p);
    if (version != kVersion) {
        return Error(ErrorCode::UnsupportedVersion,
                     "magic YFL2 with version " + std::to_string(version));
    }
    if (file_size < kHeaderSize + kTrailerSize) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    have = out.fill(kHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return Error(ErrorCode::Truncated, "truncated v2 header/trailer");
    }
    p = out.buf_.data() + out.pos_;
    const std::uint32_t header_crc = util::crc32(
        std::string_view(p, kHeaderSize - 4));
    p += sizeof(kMagic) + sizeof(std::uint32_t);
    out.count_ = take<std::uint64_t>(p);
    if (take<std::uint32_t>(p) != header_crc) {
        return error_at_byte(ErrorCode::ChecksumMismatch, "header CRC mismatch",
                             kHeaderSize - 4);
    }
    if (out.count_ > (file_size - kHeaderSize - kTrailerSize) / kRecordSize ||
        file_size != binary_log_size(out.count_)) {
        return Error(ErrorCode::CountMismatch,
                     "v2 size mismatch: declared " + std::to_string(out.count_) +
                         " records (" + std::to_string(binary_log_size(out.count_)) +
                         " bytes), stream holds " + std::to_string(file_size));
    }
    out.pos_ += kHeaderSize;
    out.abs_ += kHeaderSize;
    return out;
}

util::Result<bool> FlowLogReader::fill(std::size_t need) {
    if (pos_ > 0 && buf_.size() - pos_ < need) {
        buf_.erase(0, pos_);
        pos_ = 0;
    }
    while (buf_.size() - pos_ < need) {
        auto n = reader_.read_chunk(buf_, chunk_);
        if (!n) return std::move(n).error();
        if (n.value() == 0) return false;
    }
    return true;
}

util::Result<std::size_t> FlowLogReader::next(std::vector<FlowRecord>& out) {
    out.clear();
    if (done_) return std::size_t{0};
    if (read_ == count_) {
        auto have = fill(kTrailerSize);
        if (!have) return std::move(have).error();
        if (!have.value()) {
            return error_at_byte(ErrorCode::Truncated, "truncated v2 trailer",
                                 abs_);
        }
        const char* tp = buf_.data() + pos_;
        if (std::memcmp(tp, kTrailerMagic, sizeof(kTrailerMagic)) != 0) {
            return error_at_byte(ErrorCode::BadMagic, "bad trailer magic", abs_);
        }
        const std::uint32_t trailer_crc =
            util::crc32(std::string_view(tp, kTrailerSize - 4));
        tp += sizeof(kTrailerMagic);
        const auto trailer_count = take<std::uint64_t>(tp);
        if (take<std::uint32_t>(tp) != trailer_crc) {
            return error_at_byte(ErrorCode::ChecksumMismatch,
                                 "trailer CRC mismatch",
                                 abs_ + kTrailerSize - 4);
        }
        if (trailer_count != count_) {
            return error_at_byte(ErrorCode::CountMismatch,
                                 "trailer count " + std::to_string(trailer_count) +
                                     " != header count " + std::to_string(count_),
                                 abs_ + sizeof(kTrailerMagic));
        }
        pos_ += kTrailerSize;
        abs_ += kTrailerSize;
        auto more = fill(1);
        if (!more) return std::move(more).error();
        if (more.value()) {
            return error_at_byte(ErrorCode::CountMismatch,
                                 "bytes remain past the trailer", abs_);
        }
        done_ = true;
        return std::size_t{0};
    }

    const std::uint64_t block = read_ / kBlockRecords;
    const auto expected = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockRecords, count_ - read_));
    auto have = fill(kBlockHeaderSize);
    if (!have) return std::move(have).error();
    if (!have.value()) {
        return error_at_byte(ErrorCode::Truncated,
                             "truncated block " + std::to_string(block), abs_);
    }
    const char* bp = buf_.data() + pos_;
    const auto block_records = take<std::uint32_t>(bp);
    const auto block_crc = take<std::uint32_t>(bp);
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
    const std::uint32_t actual_crc = util::crc32(std::string_view(
        buf_.data() + pos_ + kBlockHeaderSize, payload_size));
    if (actual_crc != block_crc) {
        return error_at_record(
            ErrorCode::ChecksumMismatch,
            "block " + std::to_string(block) + " (records " +
                std::to_string(read_) + ".." +
                std::to_string(read_ + expected - 1) + ") CRC mismatch",
            read_, payload_abs);
    }
    pos_ += kBlockHeaderSize;
    abs_ += kBlockHeaderSize;
    out.reserve(expected);
    for (std::size_t i = 0; i < expected; ++i) {
        auto record = parse_record(buf_.data() + pos_, read_, abs_);
        if (!record) return std::move(record).error();
        out.push_back(std::move(record).value());
        pos_ += kRecordSize;
        abs_ += kRecordSize;
        ++read_;
    }
    return expected;
}

}  // namespace ytcdn::capture
