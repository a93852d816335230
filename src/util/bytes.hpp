#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace ytcdn::util {

/// The byte codec every on-disk format shares (YFL2 flow logs, YTR1 traces,
/// YCK1 checkpoints and their stage payloads, ytcdnd's service checkpoint
/// among them).
/// Integers are little-endian, doubles travel as their raw IEEE-754 bits
/// and strings as a u32 length followed by the bytes.
static_assert(std::endian::native == std::endian::little,
              "on-disk formats assume a little-endian host");

template <typename T>
void put(std::string& buf, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    char raw[sizeof(T)];
    std::memcpy(raw, &value, sizeof(T));
    buf.append(raw, sizeof(T));
}

inline void put_f64(std::string& buf, double value) {
    put(buf, std::bit_cast<std::uint64_t>(value));
}

inline void put_str32(std::string& buf, std::string_view s) {
    put(buf, static_cast<std::uint32_t>(s.size()));
    buf.append(s);
}

/// Bounds-checked sequential reader over an in-memory encoding. Every take
/// into an out-parameter returns false when too few bytes remain and then
/// consumes nothing, except take_str32, which has consumed the length when
/// the bytes fall short. Callers render their own error text from offset().
class ByteReader {
public:
    explicit ByteReader(std::string_view data) noexcept : data_(data) {}

    /// The next T, for fixed-size frames whose length the caller has
    /// already checked; a short read yields a value-initialized T.
    template <typename T>
    T take() noexcept {
        T value{};
        take(&value);
        return value;
    }

    template <typename T>
    bool take(T* out) noexcept {
        static_assert(std::is_trivially_copyable_v<T>);
        if (remaining() < sizeof(T)) return false;
        std::memcpy(out, data_.data() + off_, sizeof(T));
        off_ += sizeof(T);
        return true;
    }

    bool take_f64(double* out) noexcept {
        std::uint64_t bits = 0;
        if (!take(&bits)) return false;
        *out = std::bit_cast<double>(bits);
        return true;
    }

    bool take_str32(std::string* out) {
        std::uint32_t n = 0;
        return take(&n) && take_bytes(out, n);
    }

    /// The length is checked against the remaining bytes before anything is
    /// allocated, so a corrupt multi-gigabyte length is a clean failure.
    bool take_bytes(std::string* out, std::uint64_t n) {
        std::string_view bytes;
        if (!view(n, &bytes)) return false;
        out->assign(bytes);
        return true;
    }

    /// The next `n` bytes without copying them.
    bool view(std::uint64_t n, std::string_view* out) noexcept {
        if (remaining() < n) return false;
        *out = data_.substr(off_, static_cast<std::size_t>(n));
        off_ += static_cast<std::size_t>(n);
        return true;
    }

    [[nodiscard]] std::size_t offset() const noexcept { return off_; }
    [[nodiscard]] std::size_t remaining() const noexcept {
        return data_.size() - off_;
    }
    [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

private:
    std::string_view data_;
    std::size_t off_ = 0;
};

}  // namespace ytcdn::util
