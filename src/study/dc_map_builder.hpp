#pragma once

#include <map>
#include <vector>

#include "analysis/dc_map.hpp"
#include "cdn/server.hpp"
#include "geoloc/cbg.hpp"
#include "geoloc/dc_clustering.hpp"
#include "study/deployment.hpp"
#include "util/parallel.hpp"
#include "workload/vantage_point.hpp"

namespace ytcdn::study {

/// Builds the server->data-center map from the deployment's ground truth:
/// every analysis-scope data center becomes an entry whose RTT is actively
/// measured by pinging it from the vantage point's probe PC (the paper's
/// methodology for Fig. 7), and whose distance is great-circle from the PoP.
[[nodiscard]] analysis::ServerDcMap ground_truth_dc_map(
    const StudyDeployment& deployment, const workload::VantagePoint& vp);

/// The measurement-only path (what the paper actually had to do): geolocate
/// the dataset's servers with CBG, cluster them into city-level data
/// centers, and measure probe RTTs per cluster.
struct CbgMappingResult {
    std::vector<geoloc::LocatedServer> located;      // one per distinct server IP
    std::vector<geoloc::DataCenterCluster> clusters; // city-level data centers
    analysis::ServerDcMap map;
};

/// One CBG estimate per data center, keyed by its id.
using DcLocations = std::map<cdn::DcId, geoloc::CbgResult>;

/// Geolocates, exactly once each, every data center that stands for an
/// in-scope /24 of any vantage point; `scope_servers[i]` is vantage point
/// i's analysis scope (IncrementalAsBreakdown::scope_servers(), sorted). A
/// /24 is located at the site of the data center owning its first in-scope
/// IP that has one, so every vantage point that sees a data center shares
/// one CBG run (locate() is a pure function of the site). `locator` must
/// already be calibrated. The runs fan out over `pool`; the table is
/// bit-identical at any thread count.
[[nodiscard]] DcLocations locate_scope_dcs(
    const StudyDeployment& deployment,
    const std::vector<std::vector<net::IpAddress>>& scope_servers,
    const geoloc::CbgLocator& locator, util::ThreadPool& pool = util::shared_pool());

/// Maps one vantage point's in-scope servers (Google AS + its own AS,
/// sorted) through `located`, the locate_scope_dcs table of a scope list
/// that contains this one: each /24's members share its data center's
/// estimate, matching the paper's clustering invariant. Locates nothing
/// itself; throws std::invalid_argument if `located` lacks a needed data
/// center.
[[nodiscard]] CbgMappingResult cbg_dc_map(
    const StudyDeployment& deployment, const std::vector<net::IpAddress>& scope_servers,
    const DcLocations& located, const workload::VantagePoint& vp);

}  // namespace ytcdn::study
