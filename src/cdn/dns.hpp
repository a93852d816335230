#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/selection_policy.hpp"
#include "cdn/server.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace ytcdn::cdn {

using LdnsId = std::int32_t;
inline constexpr LdnsId kInvalidLdns = -1;

/// Status of one DNS lookup through a local resolver.
enum class DnsStatus {
    Ok,        // an answer was produced
    ServFail,  // the resolver is down; the stub resolver sees SERVFAIL
};

/// What a client's stub resolver gets back from its local resolver.
struct DnsAnswer {
    DnsStatus status = DnsStatus::Ok;
    DcId dc = kInvalidDc;
    /// True when the resolver served its cached last answer instead of
    /// consulting the authoritative side (the past-TTL stale-answer fault).
    bool stale = false;
};

/// The DNS side of YouTube server selection (step 3 in the paper's Fig. 1).
///
/// Each client uses a *local* DNS server; YouTube's authoritative DNS answers
/// each local resolver according to a policy. The paper shows the policy can
/// differ across resolvers of the same network (Section VII-B: the Net-3
/// subnet of US-Campus is mapped to a different preferred data center), so a
/// policy is attached per local resolver, not per network.
class DnsSystem {
public:
    DnsSystem() = default;

    /// Registers a local resolver with its authoritative-side policy.
    LdnsId add_resolver(std::string name, std::unique_ptr<SelectionPolicy> policy);

    [[nodiscard]] std::size_t num_resolvers() const noexcept { return resolvers_.size(); }
    [[nodiscard]] const std::string& resolver_name(LdnsId id) const;
    /// Resolver id by registration name, or kInvalidLdns. The fault
    /// injector addresses resolvers this way.
    [[nodiscard]] LdnsId resolver_by_name(std::string_view name) const noexcept;

    /// Resolves the content-server name for a client behind `resolver`.
    /// A healthy resolver consults its authoritative-side policy; a down
    /// resolver answers SERVFAIL; a stale resolver replays its last answer
    /// past TTL without consulting the policy.
    [[nodiscard]] DnsAnswer query(LdnsId resolver, sim::SimTime now, sim::Rng& rng);

    /// Legacy convenience for fault-free callers: returns the data center
    /// directly, throwing if the resolver is down.
    [[nodiscard]] DcId resolve(LdnsId resolver, sim::SimTime now, sim::Rng& rng);

    // --- health (fault injection) ------------------------------------------

    void set_resolver_up(LdnsId resolver, bool up);
    [[nodiscard]] bool resolver_up(LdnsId resolver) const;
    /// Toggles stale-answer mode: the resolver keeps returning its most
    /// recent answer (if any) instead of asking the authoritative side.
    void set_resolver_stale(LdnsId resolver, bool stale);
    [[nodiscard]] bool resolver_stale(LdnsId resolver) const;

    /// How many resolutions each (resolver, data center) pair has seen, for
    /// diagnosis and tests.
    [[nodiscard]] std::uint64_t resolution_count(LdnsId resolver, DcId dc) const noexcept;
    [[nodiscard]] std::uint64_t total_resolutions() const noexcept { return total_; }
    /// Per-resolver failure counters.
    [[nodiscard]] std::uint64_t servfail_count(LdnsId resolver) const;
    [[nodiscard]] std::uint64_t stale_answer_count(LdnsId resolver) const;

private:
    struct Resolver {
        std::string name;
        std::unique_ptr<SelectionPolicy> policy;
        /// Resolutions per data center, indexed by DcId and grown on
        /// demand.
        std::vector<std::uint64_t> counts;
        bool up = true;
        bool stale = false;
        DcId last_answer = kInvalidDc;
        std::uint64_t servfails = 0;
        std::uint64_t stale_served = 0;
    };
    [[nodiscard]] Resolver& resolver_or_throw(LdnsId id, const char* what);
    [[nodiscard]] const Resolver& resolver_or_throw(LdnsId id, const char* what) const;
    static void count_answer(Resolver& r, DcId dc);

    std::vector<Resolver> resolvers_;
    std::uint64_t total_ = 0;
};

}  // namespace ytcdn::cdn
