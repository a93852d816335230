// The typed-error layer under all I/O boundaries: ytcdn::Error carries a
// code, a rendered message with provenance, and maps onto a stable process
// exit-code taxonomy; util::Result threads it through fallible call chains;
// util::crc32 is the framing checksum; util::io::write_file_atomic is the
// shared torn-write guard.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/io.hpp"

#include "test_support.hpp"

namespace util = ytcdn::util;
using ytcdn::Error;
using ytcdn::ErrorCategory;
using ytcdn::ErrorCode;

namespace {

// --- crc32 ---------------------------------------------------------------

TEST(Crc32, MatchesKnownVectors) {
    // The IEEE 802.3 check value for "123456789".
    EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(util::crc32(""), 0x00000000u);
    EXPECT_EQ(util::crc32("a"), 0xE8B7BE43u);
}

TEST(Crc32, SeedChainsIncrementally) {
    const std::string all = "the quick brown fox";
    const auto whole = util::crc32(all);
    const auto chained = util::crc32(all.substr(9), util::crc32(all.substr(0, 9)));
    EXPECT_EQ(whole, chained);
}

TEST(Crc32, DetectsSingleBitFlips) {
    std::string data(256, '\0');
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<char>(i);
    const auto baseline = util::crc32(data);
    for (const std::size_t at : {std::size_t{0}, data.size() / 2, data.size() - 1}) {
        std::string flipped = data;
        flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
        EXPECT_NE(util::crc32(flipped), baseline) << "flip at " << at;
    }
}

/// The bitwise-table reference the slicing-by-8 kernel must reproduce.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n, std::uint32_t seed) {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k) c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
    std::vector<unsigned char> out(n);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& b : out) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<unsigned char>(x >> 32);
    }
    return out;
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryShortLength) {
    const auto bytes = pseudo_random_bytes(64);
    for (std::size_t n = 0; n <= 64; ++n) {
        EXPECT_EQ(util::crc32(bytes.data(), n), crc32_bytewise(bytes.data(), n, 0))
            << "length " << n;
    }
}

TEST(Crc32, MatchesBytewiseReferenceOnLargeUnalignedBuffers) {
    const auto bytes = pseudo_random_bytes((1u << 20) + 64);
    for (std::size_t offset = 0; offset < 16; ++offset) {
        const std::size_t n = bytes.size() - 64 + offset % 7;
        EXPECT_EQ(util::crc32(bytes.data() + offset, n),
                  crc32_bytewise(bytes.data() + offset, n, 0))
            << "offset " << offset;
    }
}

TEST(Crc32, ChainedSeedsMatchBytewiseReference) {
    const auto bytes = pseudo_random_bytes(4099);
    std::uint32_t fast = 0;
    std::uint32_t slow = 0;
    std::size_t at = 0;
    for (std::size_t step = 1; at < bytes.size(); step = step * 3 % 61 + 1) {
        const std::size_t n = std::min(step, bytes.size() - at);
        fast = util::crc32(bytes.data() + at, n, fast);
        slow = crc32_bytewise(bytes.data() + at, n, slow);
        EXPECT_EQ(fast, slow) << "after " << at + n << " bytes";
        at += n;
    }
    EXPECT_EQ(fast, util::crc32(bytes.data(), bytes.size()));
    const std::string check = "123456789";
    EXPECT_EQ(crc32_bytewise(reinterpret_cast<const unsigned char*>(check.data()),
                             check.size(), 0),
              0xCBF43926u);
}

// --- Error ---------------------------------------------------------------

TEST(Error, RendersProvenanceInStableBrackets) {
    EXPECT_STREQ(Error(ErrorCode::Parse, "bad token").what(), "bad token");
    EXPECT_STREQ(ytcdn::error_at_byte(ErrorCode::Truncated, "short read", 229).what(),
                 "short read [byte 229]");
    EXPECT_STREQ(
        ytcdn::error_at_record(ErrorCode::ChecksumMismatch, "CRC mismatch", 5, 229)
            .what(),
        "CRC mismatch [record 5 @ byte 229]");
    EXPECT_STREQ(ytcdn::error_at_line(ErrorCode::Parse, "bad action", 3).what(),
                 "bad action [line 3]");
}

TEST(Error, ContextPrefixesAndPreservesCodeAndProvenance) {
    const auto inner = ytcdn::error_at_record(ErrorCode::BadField, "bad itag 250", 7, 315);
    const auto outer = inner.context("read_binary_log trace.yfl");
    EXPECT_STREQ(outer.what(),
                 "read_binary_log trace.yfl: bad itag 250 [record 7 @ byte 315]");
    EXPECT_EQ(outer.code(), ErrorCode::BadField);
    ASSERT_TRUE(outer.where().record_index.has_value());
    EXPECT_EQ(*outer.where().record_index, 7u);
}

TEST(Error, IsCatchableAsRuntimeError) {
    // Drop-in compatibility: pre-existing catch sites keep working.
    try {
        throw Error(ErrorCode::Io, "disk unplugged");
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "disk unplugged");
    }
}

TEST(Error, CategoriesAndExitCodesAreStable) {
    EXPECT_EQ(ytcdn::error_category(ErrorCode::Io), ErrorCategory::Io);
    EXPECT_EQ(ytcdn::error_category(ErrorCode::ChecksumMismatch),
              ErrorCategory::Corrupt);
    EXPECT_EQ(ytcdn::error_category(ErrorCode::Parse), ErrorCategory::Parse);
    EXPECT_EQ(ytcdn::error_category(ErrorCode::InvalidArgument),
              ErrorCategory::Usage);

    // The exit-code taxonomy is part of the CLI contract (tested end to end
    // by cli_exit_codes): 2 usage, 3 io, 4 corrupt, 5 parse.
    EXPECT_EQ(ytcdn::exit_code_for(ErrorCode::InvalidArgument), 2);
    EXPECT_EQ(ytcdn::exit_code_for(ErrorCode::Io), 3);
    for (const auto corrupt :
         {ErrorCode::BadMagic, ErrorCode::UnsupportedVersion, ErrorCode::Truncated,
          ErrorCode::ChecksumMismatch, ErrorCode::CountMismatch, ErrorCode::BadField,
          ErrorCode::KeyMismatch}) {
        EXPECT_EQ(ytcdn::exit_code_for(corrupt), 4) << ytcdn::to_string(corrupt);
    }
    EXPECT_EQ(ytcdn::exit_code_for(ErrorCode::Parse), 5);
}

// --- Result --------------------------------------------------------------

util::Result<int> parse_positive(int x) {
    if (x <= 0) return Error(ErrorCode::InvalidArgument, "not positive");
    return x;
}

TEST(Result, HoldsValueOrError) {
    auto ok = parse_positive(3);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value(), 3);

    auto bad = parse_positive(-1);
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(static_cast<bool>(bad));
    EXPECT_EQ(bad.error().code(), ErrorCode::InvalidArgument);
}

TEST(Result, ValueOrThrowThrowsTheTypedError) {
    EXPECT_EQ(parse_positive(5).value_or_throw(), 5);
    try {
        (void)parse_positive(0).value_or_throw();
        FAIL() << "expected ytcdn::Error";
    } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument);
    }
}

TEST(Result, ContextChainsOutermostLast) {
    auto wrapped = parse_positive(0).context("loading config");
    ASSERT_FALSE(wrapped.ok());
    EXPECT_STREQ(wrapped.error().what(), "loading config: not positive");
    // No-op on success.
    EXPECT_EQ(parse_positive(2).context("loading config").value_or_throw(), 2);
}

util::Result<void> check_even(int x) {
    if (x % 2 != 0) return Error(ErrorCode::BadField, "odd");
    return {};
}

TEST(Result, VoidSpecializationWorks) {
    EXPECT_TRUE(check_even(4).ok());
    auto odd = check_even(3);
    ASSERT_FALSE(odd.ok());
    EXPECT_EQ(odd.error().code(), ErrorCode::BadField);
    EXPECT_THROW(check_even(3).value_or_throw(), Error);
}

// --- io::write_file_atomic -----------------------------------------------

class AtomicFileTest : public ::testing::Test {
protected:
    // One directory per test and process: ctest -j runs each test as its
    // own process, and a shared directory would let one test delete
    // another's files.
    const ytcdn::test::ScratchDir scratch_;
    const std::filesystem::path& dir_ = scratch_.path();
};

TEST_F(AtomicFileTest, WritesBytesAndCreatesParents) {
    const auto path = dir_ / "nested" / "out.bin";
    ASSERT_TRUE(util::io::write_file_atomic(path, std::string_view("payload")).ok());
    EXPECT_EQ(ytcdn::test::file_bytes(path), "payload");
    // No temp file left behind.
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

TEST_F(AtomicFileTest, ReplacesExistingFileAtomically) {
    const auto path = dir_ / "out.bin";
    ASSERT_TRUE(util::io::write_file_atomic(path, std::string_view("old")).ok());
    ASSERT_TRUE(util::io::write_file_atomic(path, std::string_view("new")).ok());
    EXPECT_EQ(ytcdn::test::file_bytes(path), "new");
}

TEST_F(AtomicFileTest, FailedWriterLeavesOldContentIntact) {
    const auto path = dir_ / "out.bin";
    ASSERT_TRUE(util::io::write_file_atomic(path, std::string_view("keep me")).ok());
    const auto result = util::io::write_file_atomic(path, [](std::ostream& os) {
        os << "half-written";
        return false;  // writer reports failure
    });
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().code(), ErrorCode::Io);
    EXPECT_EQ(ytcdn::test::file_bytes(path), "keep me");
    EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
}

}  // namespace
