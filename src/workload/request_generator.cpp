#include "workload/request_generator.hpp"

#include <numeric>
#include <stdexcept>
#include <utility>

namespace ytcdn::workload {

namespace {

double max_rate_bound(const VantagePoint& vp) {
    // Peak hourly multiplier, weekend factor can exceed 1 for residential
    // networks; 10% headroom for interpolation between knots.
    return vp.mean_sessions_per_s * vp.profile.peak_to_mean() * 1.35;
}

}  // namespace

RequestDraws::RequestDraws(const VantagePoint& vp, const cdn::VideoCatalog& catalog,
                           const RequestConfig& config, sim::Rng rng,
                           std::shared_ptr<const sim::ZipfDistribution> zipf)
    : vp_(&vp),
      catalog_(&catalog),
      config_(config),
      rng_(rng),
      zipf_(zipf ? std::move(zipf)
                 : std::make_shared<const sim::ZipfDistribution>(catalog.size(),
                                                                 config.zipf_exponent)),
      arrivals_([&vp](sim::SimTime t) {
                    return vp.mean_sessions_per_s * vp.profile.multiplier_at(t);
                },
                max_rate_bound(vp), rng.fork("arrivals")) {
    if (vp.clients.empty()) {
        throw std::invalid_argument("RequestGenerator: vantage point has no clients");
    }
    const double wsum = std::accumulate(config_.resolution_weights.begin(),
                                        config_.resolution_weights.end(), 0.0);
    if (wsum <= 0.0) {
        throw std::invalid_argument("RequestGenerator: resolution weights sum to 0");
    }
}

void RequestDraws::begin(sim::SimTime start, sim::SimTime horizon) {
    if (begun_) throw std::logic_error("RequestDraws::begin: stream already begun");
    begun_ = true;
    last_ = start;
    horizon_ = horizon;
}

std::size_t RequestDraws::fill(std::vector<RequestDraw>& out, std::size_t max) {
    if (!begun_) throw std::logic_error("RequestDraws::fill: stream not begun");
    std::size_t drawn = 0;
    while (drawn < max && !exhausted_) {
        const sim::SimTime t = arrivals_.next_after(last_);
        if (t >= horizon_) {
            exhausted_ = true;
            break;
        }
        last_ = t;
        RequestDraw& d = out.emplace_back();
        d.time = t;
        d.client = sample_client_index(*vp_, rng_);
        d.rank = sample_rank(t);
        d.resolution = sample_resolution();
        ++drawn;
    }
    return drawn;
}

cdn::Resolution RequestDraws::sample_resolution() {
    const auto& w = config_.resolution_weights;
    double total = 0.0;
    for (const double v : w) total += v;
    double x = rng_.uniform(0.0, total);
    for (std::size_t i = 0; i < w.size(); ++i) {
        x -= w[i];
        if (x <= 0.0) return cdn::kAllResolutions[i];
    }
    return cdn::Resolution::R360;
}

std::size_t RequestDraws::sample_rank(sim::SimTime t) {
    if (const auto promoted = catalog_->promoted_rank(t);
        promoted && rng_.bernoulli(config_.p_promoted)) {
        return *promoted;
    }
    return zipf_->sample(rng_);
}

RequestGenerator::RequestGenerator(sim::Simulator& simulator, VantagePoint& vp,
                                   Player& player, const cdn::VideoCatalog& catalog,
                                   const Config& config, sim::Rng rng,
                                   std::shared_ptr<const sim::ZipfDistribution> zipf)
    : simulator_(&simulator),
      vp_(&vp),
      player_(&player),
      catalog_(&catalog),
      draws_(vp, catalog, config, rng, std::move(zipf)) {}

void RequestGenerator::run(sim::SimTime horizon) {
    if (!draws_.begun()) {
        draws_.begin(simulator_->now(), horizon);
    } else if (draws_.horizon() != horizon) {
        throw std::invalid_argument("RequestGenerator::run: horizon differs from the draws'");
    }
    schedule_next();
}

bool RequestGenerator::next_draw() {
    while (block_ == nullptr || cursor_ == block_->size()) {
        if (feed_ != nullptr) {
            block_ = feed_->next_block();
        } else {
            own_block_.clear();
            draws_.fill(own_block_, RequestDraws::kBlock);
            block_ = own_block_.empty() ? nullptr : &own_block_;
        }
        cursor_ = 0;
        if (block_ == nullptr) return false;
    }
    pending_ = (*block_)[cursor_++];
    return true;
}

void RequestGenerator::schedule_next() {
    if (!next_draw()) return;
    simulator_->schedule_at(pending_.time, [this] {
        ++requests_;
        player_->start_session(vp_->clients[pending_.client],
                               catalog_->by_rank(pending_.rank), pending_.resolution);
        schedule_next();
    });
}

}  // namespace ytcdn::workload
