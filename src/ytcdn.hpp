#pragma once

// ytcdn — umbrella header for the reproduction of "Dissecting Video Server
// Selection Strategies in the YouTube CDN" (Torres et al., ICDCS 2011).
//
// Typical use:
//
//   #include "ytcdn.hpp"
//
//   ytcdn::study::StudyConfig config;
//   config.scale = 0.1;                       // fraction of Table I volume
//   const auto run = ytcdn::study::run_study(config);
//
//   const auto adsl = run.vp_index("EU1-ADSL");
//   const auto folds = ytcdn::analysis::fold_report(
//       run.traces.datasets[adsl], ytcdn::study::vantage_scope(run, adsl));
//   const auto patterns = folds.sessions.patterns();
//
// Subsystem headers can of course be included individually; this header
// simply pulls in the public API surface.

// Substrates.
#include "geo/city.hpp"
#include "geo/continent.hpp"
#include "geo/geo_point.hpp"
#include "net/as_registry.hpp"
#include "net/ip_address.hpp"
#include "net/pinger.hpp"
#include "net/rtt_model.hpp"
#include "net/subnet.hpp"
#include "sim/arrival_process.hpp"
#include "sim/diurnal.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/zipf.hpp"

// The CDN model.
#include "cdn/cache.hpp"
#include "cdn/catalog.hpp"
#include "cdn/cdn.hpp"
#include "cdn/data_center.hpp"
#include "cdn/dns.hpp"
#include "cdn/http.hpp"
#include "cdn/selection_policy.hpp"
#include "cdn/server.hpp"
#include "cdn/video.hpp"

// Workload and capture.
#include "capture/classifier.hpp"
#include "capture/dataset.hpp"
#include "capture/flow_log.hpp"
#include "capture/flow_record.hpp"
#include "capture/sniffer.hpp"
#include "workload/client.hpp"
#include "workload/player.hpp"
#include "workload/population.hpp"
#include "workload/request_generator.hpp"
#include "workload/vantage_point.hpp"

// Geolocation.
#include "geoloc/bestline.hpp"
#include "geoloc/cbg.hpp"
#include "geoloc/dc_clustering.hpp"
#include "geoloc/ip2location_db.hpp"
#include "geoloc/landmark.hpp"

// Analyses.
#include "analysis/as_analysis.hpp"
#include "analysis/dc_map.hpp"
#include "analysis/geo_analysis.hpp"
#include "analysis/preferred_dc.hpp"
#include "analysis/report_folds.hpp"
#include "analysis/series.hpp"
#include "analysis/session.hpp"
#include "analysis/stats.hpp"
#include "analysis/streaming.hpp"
#include "analysis/table.hpp"

// The study itself.
#include "study/config.hpp"
#include "study/dc_map_builder.hpp"
#include "study/deployment.hpp"
#include "study/planetlab_experiment.hpp"
#include "study/report.hpp"
#include "study/study_run.hpp"
#include "study/trace_driver.hpp"
