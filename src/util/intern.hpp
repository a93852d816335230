#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/arena.hpp"

namespace ytcdn::util {

/// A thread-confined string interner: the first time a string is seen it is
/// copied into the interner's arena and assigned the next dense id, so ids
/// are exactly first-seen order.
///
/// Lookups take `std::string_view` and never allocate; `find()` on a missing
/// string is also allocation-free, which is what makes the interner usable
/// inside per-event loops (`Cdn::server_by_hostname`).
class Interner {
public:
    using Id = std::uint32_t;
    static constexpr Id kInvalidId = 0xFFFFFFFFu;

    Interner() = default;
    Interner(const Interner&) = delete;
    Interner& operator=(const Interner&) = delete;
    Interner(Interner&&) noexcept = default;
    Interner& operator=(Interner&&) noexcept = default;

    /// Returns the id of `s`, interning a stable copy on first sight.
    Id intern(std::string_view s);

    /// Id of `s` if already interned, `kInvalidId` otherwise. Never allocates.
    [[nodiscard]] Id find(std::string_view s) const noexcept;

    /// The interned string for a valid id; views stay stable for the
    /// interner's lifetime (arena-backed, never rehashed away).
    [[nodiscard]] std::string_view view(Id id) const noexcept { return by_id_[id]; }

    [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }
    [[nodiscard]] bool empty() const noexcept { return by_id_.empty(); }

private:
    Arena arena_{4 * 1024};
    std::vector<std::string_view> by_id_;
    std::unordered_map<std::string_view, Id> index_;
};

}  // namespace ytcdn::util
