#include "cdn/dns.hpp"

#include <gtest/gtest.h>

namespace cdn = ytcdn::cdn;
namespace sim = ytcdn::sim;

namespace {

TEST(DnsSystem, ResolverRegistrationAndNaming) {
    cdn::DnsSystem dns;
    const auto id = dns.add_resolver(
        "campus-main", std::make_unique<cdn::StaticPreferencePolicy>(
                           std::vector<cdn::DcId>{5}));
    EXPECT_EQ(dns.num_resolvers(), 1u);
    EXPECT_EQ(dns.resolver_name(id), "campus-main");
    EXPECT_THROW((void)dns.resolver_name(99), std::out_of_range);
    EXPECT_THROW(dns.add_resolver("null", nullptr), std::invalid_argument);
}

TEST(DnsSystem, ResolveDelegatesToPolicyAndCounts) {
    cdn::DnsSystem dns;
    const auto id = dns.add_resolver(
        "r", std::make_unique<cdn::StaticPreferencePolicy>(std::vector<cdn::DcId>{3}));
    sim::Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(dns.resolve(id, i * 1.0, rng), 3);
    }
    EXPECT_EQ(dns.resolution_count(id, 3), 10u);
    EXPECT_EQ(dns.resolution_count(id, 4), 0u);
    EXPECT_EQ(dns.total_resolutions(), 10u);
}

TEST(DnsSystem, DifferentResolversDifferentPolicies) {
    // The Section VII-B mechanism: two resolvers in the same network mapped
    // to different preferred data centers.
    cdn::DnsSystem dns;
    const auto main_r = dns.add_resolver(
        "main", std::make_unique<cdn::StaticPreferencePolicy>(std::vector<cdn::DcId>{1}));
    const auto net3 = dns.add_resolver(
        "net3", std::make_unique<cdn::StaticPreferencePolicy>(std::vector<cdn::DcId>{2}));
    sim::Rng rng(2);
    EXPECT_EQ(dns.resolve(main_r, 0.0, rng), 1);
    EXPECT_EQ(dns.resolve(net3, 0.0, rng), 2);
}

TEST(DnsSystem, ResolutionCountsPerDataCenterIncludingStaleReplays) {
    // Counts are kept per DcId; ids never answered, negative ids and ids
    // past every answer read 0. Stale replays count under their answer.
    cdn::DnsSystem dns;
    const auto a = dns.add_resolver(
        "a", std::make_unique<cdn::StaticPreferencePolicy>(std::vector<cdn::DcId>{40}));
    const auto b = dns.add_resolver(
        "b", std::make_unique<cdn::StaticPreferencePolicy>(std::vector<cdn::DcId>{0}));
    sim::Rng rng(4);
    for (int i = 0; i < 3; ++i) (void)dns.resolve(a, i * 1.0, rng);
    dns.set_resolver_stale(a, true);
    for (int i = 0; i < 2; ++i) EXPECT_TRUE(dns.query(a, 10.0 + i, rng).stale);
    (void)dns.resolve(b, 0.0, rng);
    EXPECT_EQ(dns.resolution_count(a, 40), 5u);
    EXPECT_EQ(dns.resolution_count(a, 0), 0u);
    EXPECT_EQ(dns.resolution_count(a, 39), 0u);
    EXPECT_EQ(dns.resolution_count(a, 41), 0u);
    EXPECT_EQ(dns.resolution_count(a, cdn::kInvalidDc), 0u);
    EXPECT_EQ(dns.resolution_count(b, 0), 1u);
    EXPECT_EQ(dns.resolution_count(b, 40), 0u);
    EXPECT_EQ(dns.resolution_count(7, 0), 0u);  // unknown resolver
    EXPECT_EQ(dns.total_resolutions(), 6u);
}

TEST(DnsSystem, UnknownResolverThrows) {
    cdn::DnsSystem dns;
    sim::Rng rng(3);
    EXPECT_THROW((void)dns.resolve(0, 0.0, rng), std::out_of_range);
}

}  // namespace
