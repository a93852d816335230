// util::FlatU32Set, the distinct-address set behind Table I: it must agree
// with std::unordered_set on insertion results, size and sorted contents,
// including the value 0 (its empty-slot marker) and 0xFFFFFFFF, across
// growth.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_set>
#include <vector>

#include "util/flat_u32_set.hpp"

namespace util = ytcdn::util;

namespace {

std::vector<std::uint32_t> sorted_of(const std::unordered_set<std::uint32_t>& set) {
    std::vector<std::uint32_t> out(set.begin(), set.end());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(FlatU32Set, AgreesWithUnorderedSetThroughSeveralGrowths) {
    std::mt19937 rng(7);
    for (const std::uint32_t range : {50u, 5'000u, 0xFFFFFFFFu}) {
        util::FlatU32Set flat;
        std::unordered_set<std::uint32_t> reference;
        std::uniform_int_distribution<std::uint32_t> draw(0, range);
        // Interleave the extremes with the draws so they land in every table size.
        for (std::size_t i = 0; i < 20'000; ++i) {
            std::uint32_t v = draw(rng);
            if (i % 997 == 0) v = 0;
            if (i % 1009 == 0) v = 0xFFFFFFFFu;
            const bool fresh = reference.insert(v).second;
            ASSERT_EQ(flat.insert(v), fresh) << "value " << v;
            if ((i & (i + 1)) == 0) {  // at every power of two
                ASSERT_EQ(flat.size(), reference.size());
                ASSERT_EQ(flat.sorted(), sorted_of(reference));
            }
        }
        EXPECT_EQ(flat.size(), reference.size());
        const auto sorted = flat.sorted();
        EXPECT_EQ(sorted, sorted_of(reference));
        EXPECT_EQ(sorted.front(), 0u);
        EXPECT_EQ(sorted.back(), 0xFFFFFFFFu);
    }
}

TEST(FlatU32Set, ZeroIsAnOrdinaryMember) {
    util::FlatU32Set set;
    EXPECT_EQ(set.size(), 0u);
    EXPECT_TRUE(set.insert(0));
    EXPECT_FALSE(set.insert(0));
    EXPECT_EQ(set.size(), 1u);
    EXPECT_TRUE(set.insert(0xFFFFFFFFu));
    EXPECT_EQ(set.sorted(), (std::vector<std::uint32_t>{0u, 0xFFFFFFFFu}));
}

TEST(FlatU32Set, ReserveKeepsContents) {
    util::FlatU32Set set;
    for (std::uint32_t v = 1; v <= 100; ++v) set.insert(v * 256);
    set.reserve(10'000);
    EXPECT_EQ(set.size(), 100u);
    for (std::uint32_t v = 1; v <= 100; ++v) EXPECT_FALSE(set.insert(v * 256));
    EXPECT_TRUE(set.insert(101 * 256));
    EXPECT_EQ(set.sorted().size(), 101u);
}

}  // namespace
