#include "util/crc32.hpp"

#include <array>

namespace ytcdn::util {

namespace {

/// Slicing-by-8 tables: kTables[0] is the classic bytewise table; entry i of
/// kTables[k] is the CRC state of byte i followed by k zero bytes, so eight
/// lookups advance the CRC over eight input bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr Tables make_tables() {
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i) {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
        }
    }
    return t;
}

constexpr Tables kTables = make_tables();

/// Little-endian load; compilers turn it into one move on x86 and ARM.
std::uint32_t load_le32(const unsigned char* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; size -= 8, p += 8) {
        const std::uint32_t lo = c ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; --size, ++p) {
        c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) noexcept {
    return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace ytcdn::util
