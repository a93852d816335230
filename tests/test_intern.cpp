#include "util/intern.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ytcdn::util {
namespace {

TEST(Interner, FirstSeenOrderIds) {
    Interner in;
    EXPECT_EQ(in.intern("alpha"), 0u);
    EXPECT_EQ(in.intern("beta"), 1u);
    EXPECT_EQ(in.intern("alpha"), 0u);
    EXPECT_EQ(in.intern("gamma"), 2u);
    EXPECT_EQ(in.size(), 3u);
    EXPECT_EQ(in.view(1), "beta");
}

TEST(Interner, FindNeverInternsAndNeverAllocates) {
    Interner in;
    in.intern("v1.lscache3.c.youtube.com");
    EXPECT_EQ(in.find("v1.lscache3.c.youtube.com"), 0u);
    EXPECT_EQ(in.find("missing.example"), Interner::kInvalidId);
    EXPECT_EQ(in.size(), 1u);
}

TEST(Interner, ViewsStableAcrossGrowth) {
    Interner in;
    const std::string_view early = in.view(in.intern("pinned-string"));
    for (int i = 0; i < 5000; ++i) {
        in.intern("host-" + std::to_string(i) + ".c.youtube.com");
    }
    EXPECT_EQ(early, "pinned-string");
    EXPECT_EQ(in.find("pinned-string"), 0u);
}

}  // namespace
}  // namespace ytcdn::util
