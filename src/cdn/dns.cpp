#include "cdn/dns.hpp"

#include <stdexcept>
#include <utility>

#include "util/metrics.hpp"

namespace ytcdn::cdn {

namespace {

struct DnsMetrics {
    util::metrics::Counter queries = util::metrics::counter("cdn.dns.queries");
    util::metrics::Counter servfails = util::metrics::counter("cdn.dns.servfails");
    util::metrics::Counter stale = util::metrics::counter("cdn.dns.stale_answers");
};

DnsMetrics& dns_metrics() {
    static DnsMetrics metrics;
    return metrics;
}

}  // namespace

LdnsId DnsSystem::add_resolver(std::string name,
                               std::unique_ptr<SelectionPolicy> policy) {
    if (!policy) throw std::invalid_argument("DnsSystem::add_resolver: null policy");
    resolvers_.push_back(Resolver{std::move(name), std::move(policy), {}});
    return static_cast<LdnsId>(resolvers_.size() - 1);
}

const std::string& DnsSystem::resolver_name(LdnsId id) const {
    return resolver_or_throw(id, "DnsSystem::resolver_name").name;
}

LdnsId DnsSystem::resolver_by_name(std::string_view name) const noexcept {
    for (std::size_t i = 0; i < resolvers_.size(); ++i) {
        if (resolvers_[i].name == name) return static_cast<LdnsId>(i);
    }
    return kInvalidLdns;
}

DnsSystem::Resolver& DnsSystem::resolver_or_throw(LdnsId id, const char* what) {
    if (id < 0 || static_cast<std::size_t>(id) >= resolvers_.size()) {
        throw std::out_of_range(what);
    }
    return resolvers_[static_cast<std::size_t>(id)];
}

const DnsSystem::Resolver& DnsSystem::resolver_or_throw(LdnsId id,
                                                        const char* what) const {
    if (id < 0 || static_cast<std::size_t>(id) >= resolvers_.size()) {
        throw std::out_of_range(what);
    }
    return resolvers_[static_cast<std::size_t>(id)];
}

DnsAnswer DnsSystem::query(LdnsId resolver, sim::SimTime now, sim::Rng& rng) {
    auto& r = resolver_or_throw(resolver, "DnsSystem::query: unknown resolver");
    dns_metrics().queries.inc();
    if (!r.up) {
        ++r.servfails;
        dns_metrics().servfails.inc();
        return DnsAnswer{DnsStatus::ServFail, kInvalidDc, false};
    }
    if (r.stale && r.last_answer != kInvalidDc) {
        // Past-TTL replay: no policy consultation, no randomness consumed.
        ++r.stale_served;
        dns_metrics().stale.inc();
        count_answer(r, r.last_answer);
        ++total_;
        return DnsAnswer{DnsStatus::Ok, r.last_answer, true};
    }
    const ResolutionContext ctx{now, &rng};
    const DcId dc = r.policy->select(ctx);
    r.last_answer = dc;
    count_answer(r, dc);
    ++total_;
    return DnsAnswer{DnsStatus::Ok, dc, false};
}

DcId DnsSystem::resolve(LdnsId resolver, sim::SimTime now, sim::Rng& rng) {
    const DnsAnswer answer = query(resolver, now, rng);
    if (answer.status != DnsStatus::Ok) {
        throw std::runtime_error("DnsSystem::resolve: resolver " +
                                 resolver_name(resolver) + " is down (SERVFAIL)");
    }
    return answer.dc;
}

void DnsSystem::set_resolver_up(LdnsId resolver, bool up) {
    resolver_or_throw(resolver, "DnsSystem::set_resolver_up").up = up;
}

bool DnsSystem::resolver_up(LdnsId resolver) const {
    return resolver_or_throw(resolver, "DnsSystem::resolver_up").up;
}

void DnsSystem::set_resolver_stale(LdnsId resolver, bool stale) {
    resolver_or_throw(resolver, "DnsSystem::set_resolver_stale").stale = stale;
}

bool DnsSystem::resolver_stale(LdnsId resolver) const {
    return resolver_or_throw(resolver, "DnsSystem::resolver_stale").stale;
}

std::uint64_t DnsSystem::servfail_count(LdnsId resolver) const {
    return resolver_or_throw(resolver, "DnsSystem::servfail_count").servfails;
}

std::uint64_t DnsSystem::stale_answer_count(LdnsId resolver) const {
    return resolver_or_throw(resolver, "DnsSystem::stale_answer_count").stale_served;
}

std::uint64_t DnsSystem::resolution_count(LdnsId resolver, DcId dc) const noexcept {
    if (resolver < 0 || static_cast<std::size_t>(resolver) >= resolvers_.size()) return 0;
    const auto& counts = resolvers_[static_cast<std::size_t>(resolver)].counts;
    if (dc < 0 || static_cast<std::size_t>(dc) >= counts.size()) return 0;
    return counts[static_cast<std::size_t>(dc)];
}

void DnsSystem::count_answer(Resolver& r, DcId dc) {
    if (dc < 0) throw std::logic_error("DnsSystem: policy answered an invalid data center");
    const auto i = static_cast<std::size_t>(dc);
    if (i >= r.counts.size()) r.counts.resize(i + 1, 0);
    ++r.counts[i];
}

}  // namespace ytcdn::cdn
