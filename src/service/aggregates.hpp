#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>

#include "analysis/dc_map.hpp"
#include "analysis/incremental.hpp"
#include "analysis/streaming.hpp"
#include "capture/flow_record.hpp"
#include "util/error.hpp"

namespace ytcdn::service {

/// The daemon's live analysis state: per-stream Table I / Section VI
/// incremental aggregates and the per-stream Section VII fold of the
/// report's by-bytes preferred data center, rendered on demand and encoded
/// into the YCK1 service checkpoint. Streams are keyed in a std::map so
/// render() and encode() are byte-deterministic regardless of arrival
/// interleaving.
class ServiceAggregates {
public:
    explicit ServiceAggregates(double gap_T_s = 1.0) : gap_(gap_T_s) {}

    struct Stream {
        analysis::IncrementalSummary summary;
        analysis::IncrementalSessions sessions;
        /// Fed with `map().dc_of(server_ip)` once a map is installed.
        analysis::IncrementalDcTraffic dc_traffic;
        std::uint64_t unmapped_flows = 0;  // dc_of() == -1 (out-of-scope /24s)
        explicit Stream(double gap_T_s = 1.0) : sessions(gap_T_s) {}
    };

    /// The stream named `name`, created empty on first use. The reference
    /// stays valid for this object's lifetime (streams live in a std::map).
    [[nodiscard]] Stream& stream(const std::string& name);

    /// Folds `records` into `s`, one of this object's streams: the daemon
    /// resolves the stream once per batch, not once per record.
    void add(Stream& s, std::span<const capture::FlowRecord> records);
    /// add(stream(name), {r}).
    void add(const std::string& name, const capture::FlowRecord& r);

    /// Installs the server->DC map every stream's Section VII fold resolves
    /// through, and restarts those folds under it.
    void set_map(analysis::ServerDcMap map);
    [[nodiscard]] bool has_map() const noexcept {
        return map_.num_data_centers() > 0;
    }
    [[nodiscard]] const analysis::ServerDcMap& map() const noexcept {
        return map_;
    }
    /// This object: `preference().set_map(map)` installs the spool's map.
    /// The spelling is kept for perfbench's traced replica of the `--once`
    /// loop; the rename waits for ROADMAP item 1's [benchmark] PR, which
    /// deletes that replica.
    [[nodiscard]] ServiceAggregates& preference() noexcept { return *this; }

    [[nodiscard]] double gap() const noexcept { return gap_; }
    [[nodiscard]] const std::map<std::string, Stream>& streams()
        const noexcept {
        return streams_;
    }
    [[nodiscard]] std::uint64_t total_flows() const noexcept;

    /// Deterministic on-demand rendering (the `render` control command and
    /// the shutdown aggregates.txt). Open sessions are closed on a copy, so
    /// rendering is side-effect-free and shows "sessions as if every stream
    /// ended now".
    [[nodiscard]] std::string render() const;

    /// YCK1 service-checkpoint payload section. Doubles are stored as raw
    /// IEEE-754 bits and unordered containers sorted before encoding, so a
    /// resumed daemon is bit-identical to an uninterrupted one.
    [[nodiscard]] std::string encode() const;
    [[nodiscard]] static util::Result<ServiceAggregates> decode(
        std::string_view payload);

private:
    double gap_;
    analysis::ServerDcMap map_;
    std::map<std::string, Stream> streams_;
};

}  // namespace ytcdn::service
