#ifndef PSJ_SERVE_LOAD_GEN_H_
#define PSJ_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <vector>

#include "rtree/rstar_tree.h"
#include "serve/service.h"

namespace psj::serve {

/// Parameters of one open-loop serving run.
struct LoadGenOptions {
  /// Arrival rate the generator offers, independent of completions (open
  /// loop: when the submitter falls behind the schedule it bursts to catch
  /// up, so a saturated service sees its queue fill and sheds load instead
  /// of the generator silently slowing down).
  double offered_qps = 2000.0;
  int64_t duration_micros = 1'000'000;

  /// Service configuration under test.
  int num_threads = 1;
  bool batching = true;
  int64_t batch_window_micros = 200;
  size_t max_batch = 256;
  size_t queue_capacity = 4096;

  /// Query mix. Fractions of knn / join-region / point probes; the
  /// remainder are window queries. Window and point probes alternate
  /// between the two trees.
  double point_fraction = 0.30;
  double knn_fraction = 0.02;
  double join_fraction = 0.002;

  /// Fraction of single-tree queries whose center falls in a small hot
  /// region of the map (skewed real-world interest: most traffic looks at
  /// the same downtown). Hotspot traffic overlaps, which is what batched
  /// descents amortize.
  double hotspot_fraction = 0.6;
  /// Query window side length as a fraction of the map extent.
  double window_extent = 0.01;
  /// Hot region side length as a fraction of the map extent.
  double hotspot_extent = 0.08;

  /// Deadline applied to every generated query (< 0 = none).
  int64_t deadline_micros = -1;

  uint64_t seed = 42;

  /// Sample every Nth accepted query and, after the run, check its result
  /// set-equal against the single-query oracle (WindowQuery / KnnQuery /
  /// sequential-join filter). 0 disables sampling.
  int verify_every = 0;

  /// Passed through to ServiceConfig: the registry the service counts in
  /// (the caller owns it and reads snapshots during the run; null lets the
  /// service keep its own).
  obs::MetricsRegistry* metrics = nullptr;
  /// Passed through to ServiceConfig: event sink + per-request sampling
  /// period for wall-clock traces (see ServiceConfig::trace_sample_every).
  trace::TraceSink* trace = nullptr;
  int64_t trace_sample_every = 0;
};

/// Measured outcome of one open-loop run.
struct LoadGenResult {
  double offered_qps = 0.0;
  /// Queries completed ok per second of run wall time — the throughput the
  /// service sustained under this offered load.
  double sustained_qps = 0.0;
  double elapsed_seconds = 0.0;

  /// The service's own accounting after Stop(); its latency histogram's
  /// quantiles approximate the exact percentiles below to bucket width.
  ServiceStats stats;

  // Exact latency percentiles over every completed query (microseconds),
  // from the generator's full sorted latency vector.
  int64_t p50_latency_us = 0;
  int64_t p95_latency_us = 0;
  int64_t p99_latency_us = 0;

  int64_t verified_queries = 0;  // Oracle-checked samples.
  int64_t verify_failures = 0;   // Samples whose result mismatched.
};

/// \brief Drives one SpatialQueryService instance at a fixed offered
/// arrival rate for the configured duration, then stops it, drains, and
/// reports sustained throughput, exact latency percentiles, and (when
/// sampling is on) oracle verification counts.
///
/// Both trees must be sealed. The submitter runs on the calling thread; the
/// workers come from the service, so a run uses 1 + num_threads threads.
LoadGenResult RunOpenLoopLoad(const RStarTree& tree_r, const RStarTree& tree_s,
                              const LoadGenOptions& options);

/// Exact percentile over an ascending-sorted sample vector: the value at
/// floor(q * (n - 1)) — nearest-rank with truncation, so q = 0 is the
/// minimum, q = 1.0 the maximum, and a single-element vector answers every
/// quantile with that element. Returns 0 on an empty vector. Exposed (and
/// edge-case tested) because both the load generator and the CLI report
/// through it.
int64_t ExactPercentile(const std::vector<int64_t>& sorted, double q);

}  // namespace psj::serve

#endif  // PSJ_SERVE_LOAD_GEN_H_
