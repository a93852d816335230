#pragma once

#include <cstdint>
#include <string_view>

namespace ytcdn::util {

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over a byte range.
///
/// Used to frame the on-disk formats (binary_log v2 record blocks, the YCK1
/// checkpoint trailer) so that a flipped bit is detected at load time instead
/// of silently corrupting a week-long study. Chain calls by passing the
/// previous return value as `seed` to checksum discontiguous ranges.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes,
                                  std::uint32_t seed = 0) noexcept;

[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

}  // namespace ytcdn::util
