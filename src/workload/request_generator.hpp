#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/catalog.hpp"
#include "sim/arrival_process.hpp"
#include "sim/simulator.hpp"
#include "sim/zipf.hpp"
#include "workload/player.hpp"
#include "workload/population.hpp"
#include "workload/vantage_point.hpp"

namespace ytcdn::workload {

/// How a vantage point's requests are drawn.
struct RequestConfig {
    /// Zipf exponent for video popularity (~0.9 per the YouTube
    /// characterization literature the paper cites).
    double zipf_exponent = 0.9;
    /// Fraction of requests drawn to the promoted video while one is
    /// scheduled; this is what creates the Fig. 14 hot-spot spikes.
    double p_promoted = 0.08;
    /// Request mix over resolutions {240p, 360p, 480p, 720p, 1080p};
    /// 2010-era YouTube was overwhelmingly 360p flv.
    std::array<double, 5> resolution_weights{0.12, 0.62, 0.16, 0.08, 0.02};
};

/// One arrival's draws: when it fires, which client asks, and for which
/// video at which resolution.
struct RequestDraw {
    sim::SimTime time = 0.0;
    std::size_t client = 0;  // index into VantagePoint::clients
    std::size_t rank = 0;    // catalog rank of the video
    cdn::Resolution resolution = cdn::Resolution::R360;
};

/// The draws of one vantage point's request stream, in arrival order, up to
/// a horizon. They read only the generator's own RNG forks, the vantage
/// point's clients and the catalog's promotion calendar, never the
/// simulation, so a draw lane may run them ahead of the event loop
/// (TraceDriver) and the values are the same.
class RequestDraws {
public:
    /// Draws per block, on a draw lane and when a generator draws for itself.
    static constexpr std::size_t kBlock = 256;

    /// `zipf` may be shared by every stream over the same catalog; null
    /// builds this stream's own.
    RequestDraws(const VantagePoint& vp, const cdn::VideoCatalog& catalog,
                 const RequestConfig& config, sim::Rng rng,
                 std::shared_ptr<const sim::ZipfDistribution> zipf);

    /// Bounds the stream to arrivals after `start` and before `horizon`.
    /// Once only: whoever fills the stream owns its clock from here on.
    void begin(sim::SimTime start, sim::SimTime horizon);
    [[nodiscard]] bool begun() const noexcept { return begun_; }
    [[nodiscard]] sim::SimTime horizon() const noexcept { return horizon_; }

    /// Appends up to `max` draws to `out` and returns how many. Stops at
    /// the first arrival at or past the horizon; from then on the stream is
    /// exhausted and draws nothing more.
    std::size_t fill(std::vector<RequestDraw>& out, std::size_t max);
    [[nodiscard]] bool exhausted() const noexcept { return exhausted_; }
    [[nodiscard]] const RequestConfig& config() const noexcept { return config_; }

private:
    [[nodiscard]] std::size_t sample_rank(sim::SimTime t);
    [[nodiscard]] cdn::Resolution sample_resolution();

    const VantagePoint* vp_;
    const cdn::VideoCatalog* catalog_;
    RequestConfig config_;
    sim::Rng rng_;
    std::shared_ptr<const sim::ZipfDistribution> zipf_;
    sim::ArrivalProcess arrivals_;
    sim::SimTime last_ = 0.0;
    sim::SimTime horizon_ = 0.0;
    bool begun_ = false;
    bool exhausted_ = false;
};

/// Where a generator takes its draws when a draw lane fills them ahead of
/// the event loop.
class RequestFeed {
public:
    virtual ~RequestFeed() = default;
    /// The stream's next block of draws, valid until the next call, which
    /// hands it back; null once the stream reached its horizon.
    [[nodiscard]] virtual const std::vector<RequestDraw>* next_block() = 0;
};

/// Generates the video-request arrival stream of one vantage point:
/// a non-homogeneous Poisson process shaped by the network's diurnal
/// profile, with Zipf video popularity and an extra request share for the
/// front-page "video of the day" while a promotion is active.
///
/// The draws (RequestDraws) are split from the scheduling: one arrival is
/// pending on the simulator at a time, and the next is scheduled when it
/// fires, with values the generator drew itself or took from a feed.
class RequestGenerator {
public:
    using Config = RequestConfig;

    RequestGenerator(sim::Simulator& simulator, VantagePoint& vp, Player& player,
                     const cdn::VideoCatalog& catalog, const Config& config,
                     sim::Rng rng,
                     std::shared_ptr<const sim::ZipfDistribution> zipf = nullptr);

    /// This stream's draws. A driver that fills them on a draw lane begins
    /// them before the lane starts and installs the lane's feed.
    [[nodiscard]] RequestDraws& draws() noexcept { return draws_; }

    /// Takes every block of draws from `feed` instead of drawing here.
    void set_feed(RequestFeed* feed) noexcept { feed_ = feed; }

    /// Schedules the arrival stream on the simulator up to `horizon`
    /// (seconds). Call once, then Simulator::run_until(horizon). Begins the
    /// draws at now() unless a driver began them; then `horizon` must be
    /// theirs, and the draws are left to whoever fills them.
    void run(sim::SimTime horizon);

    [[nodiscard]] std::uint64_t requests_generated() const noexcept { return requests_; }
    [[nodiscard]] const Config& config() const noexcept { return draws_.config(); }

private:
    void schedule_next();
    [[nodiscard]] bool next_draw();

    sim::Simulator* simulator_;
    VantagePoint* vp_;
    Player* player_;
    const cdn::VideoCatalog* catalog_;
    RequestDraws draws_;
    RequestFeed* feed_ = nullptr;
    std::vector<RequestDraw> own_block_;  // this generator's draws, without a feed
    const std::vector<RequestDraw>* block_ = nullptr;
    std::size_t cursor_ = 0;
    RequestDraw pending_;  // the arrival scheduled on the simulator
    std::uint64_t requests_ = 0;
};

}  // namespace ytcdn::workload
