#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ytcdn::util {

/// A set of 32-bit values (IPv4 addresses, /24 prefixes) in one flat
/// open-addressing table: linear probing, at most half full, insert-only,
/// so it needs no tombstones. Slot value 0 means empty; the value 0 itself
/// is kept in a flag beside the table. Iteration order would depend on the
/// table size, so the set only answers size() and hands its contents out
/// sorted.
class FlatU32Set {
public:
    /// True if `v` was not in the set.
    bool insert(std::uint32_t v) {
        if (v == 0) {
            const bool added = !has_zero_;
            has_zero_ = true;
            return added;
        }
        if (2 * (count_ + 1) > slots_.size()) grow(2 * slots_.size());
        std::uint32_t& slot = slots_[find(v)];
        if (slot == v) return false;
        slot = v;
        ++count_;
        return true;
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return count_ + (has_zero_ ? 1 : 0);
    }

    /// Room for `n` values without growing.
    void reserve(std::size_t n) {
        std::size_t want = 16;
        while (want < 2 * n) want *= 2;
        if (want > slots_.size()) grow(want);
    }

    /// Every value, ascending.
    [[nodiscard]] std::vector<std::uint32_t> sorted() const {
        std::vector<std::uint32_t> out;
        out.reserve(size());
        if (has_zero_) out.push_back(0);
        for (const std::uint32_t v : slots_) {
            if (v != 0) out.push_back(v);
        }
        std::sort(out.begin(), out.end());
        return out;
    }

private:
    /// Fibonacci hashing: the top bits of v * 2^32/phi, so addresses that
    /// differ only in their low octet still land far apart.
    [[nodiscard]] std::size_t home(std::uint32_t v) const noexcept {
        return static_cast<std::size_t>((v * 0x9E3779B9u) >> shift_);
    }

    /// The slot holding `v`, else the empty slot that ends its probe run.
    [[nodiscard]] std::size_t find(std::uint32_t v) const noexcept {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(v);
        while (slots_[i] != 0 && slots_[i] != v) i = (i + 1) & mask;
        return i;
    }

    void grow(std::size_t slots) {
        slots = std::max<std::size_t>(slots, 16);
        std::vector<std::uint32_t> old(slots, 0);
        old.swap(slots_);
        shift_ = 32 - static_cast<unsigned>(std::countr_zero(slots));
        for (const std::uint32_t v : old) {
            if (v != 0) slots_[find(v)] = v;
        }
    }

    std::vector<std::uint32_t> slots_;  // power-of-two size, 0 = empty
    std::size_t count_ = 0;             // nonzero values in slots_
    unsigned shift_ = 32;               // 32 - log2(slots_.size())
    bool has_zero_ = false;
};

}  // namespace ytcdn::util
