#ifndef PSJ_PERFBENCH_SERVE_LOAD_H_
#define PSJ_PERFBENCH_SERVE_LOAD_H_

#include <cmath>
#include <cstdint>

#include "perfbench/bench_util.h"
#include "serve/query.h"
#include "serve/service.h"
#include "util/rng.h"

namespace psj::perfbench {

/// \brief One serving traffic mix: query shapes, sizes, locality, deadline
/// and the offered rate of the benchmark's open loop.
struct QueryMix {
  double window_side = 0.01;    // Window side, fraction of the map side.
  double point_frac = 0.30;
  double knn_frac = 0.02;       // k drawn uniformly from 1..16.
  double join_frac = 0.002;     // Region side = 2 x window side.
  double hotspot_frac = 0.6;    // Share of queries centred in the hot square.
  double hotspot_side = 0.08;   // Hot square side, fraction of the map side.
  int64_t deadline_us = -1;     // Per-query deadline; < 0 = none.
  double qps = 0.0;
};

/// Overlapping windows around one hot square: batched descents share work.
QueryMix HotspotMix();
/// Small uniform windows, many k-NN probes, a deadline on every query.
QueryMix UniformMix();

/// \brief Seeded descriptor stream implementing a QueryMix over `domain`.
class QueryGen {
 public:
  QueryGen(const QueryMix& mix, const Rect& domain, uint64_t seed);

  serve::QueryDescriptor Next();
  /// A join-region query of the mix's size and locality.
  serve::QueryDescriptor Region();

 private:
  Point Center();
  serve::TreeTarget Target();

  QueryMix mix_;
  Rect domain_;
  Rect hot_;
  double side_x_;
  double side_y_;
  Rng rng_;
};

/// One open-loop rung: Poisson arrivals at `qps` for `seconds`, generated
/// before the clock starts; requests due before `warmup_s` are served but
/// not measured.
struct RungConfig {
  double qps = 0.0;
  double seconds = 0.0;
  double warmup_s = 0.0;
  /// Attach a fresh obs::MetricsRegistry to the service.
  bool registry = true;
  /// Let the service record sampled request spans (every Nth admission)
  /// into its own sink; the stage breakdown below needs them.
  int64_t trace_sample_every = 0;
};

/// A registry-attached, oracle-checked rung of `mix` at its rate, lasting
/// `seconds`; requests due in the first 0.5 s (a quarter of a shorter
/// rung) warm the service up and are not measured.
RungConfig MixRung(const QueryMix& mix, double seconds);

/// Means and quantiles of one rung's per-request stages, which split each
/// sampled request's life from its due time to its callback: generator lag
/// (due -> Submit() called) and submission (-> admission inside Submit())
/// on the submitting thread's clock, queue wait and execution on the
/// service's whole-microsecond clock, delivery from the batch end to the
/// callback. The service's admission and batch-end instants are mapped
/// onto the harness clock; the rest of Submit() after admission overlaps
/// the queue wait and is not counted twice.
struct StageBreakdown {
  double lag_us = 0.0;
  double submit_us = 0.0;  // Submit() called -> admitted.
  double queue_wait_us = 0.0;
  double exec_us = 0.0;
  double deliver_us = 0.0;
  double deliver_us_p50 = 0.0;
  double latency_us = 0.0;  // Mean due -> callback over the same requests.

  double SumErrorPct() const {
    return 100.0 *
           std::abs(lag_us + submit_us + queue_wait_us + exec_us +
                    deliver_us - latency_us) /
           latency_us;
  }
};

struct RungOutcome {
  // Due-time latency (due -> callback), failures counted as +infinity.
  int64_t measured = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;         // Over every measured request.
  double window_p99_us = 0.0;  // Median over 0.5 s windows of each p99.

  // Every request of the rung, warm-up included.
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t deadline_missed = 0;
  int64_t lost = 0;
  int64_t duplicated = 0;
  int64_t mismatched = 0;  // Of the requests checked against the oracle.

  double gen_lag_p99_us = 0.0;  // Stages sampled; the maximum over all.
  double gen_lag_max_us = 0.0;
  double submit_ns_mean = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p99_us = 0.0;
  double exec_p50_us = 0.0;
  double exec_p99_us = 0.0;
  serve::ServiceStats stats;
  StageBreakdown stages;  // Filled when trace_sample_every > 0.
};

/// Runs one rung against a fresh SpatialQueryService over the workload's
/// maps, then checks callbacks, and every 50th request's result, against
/// the oracles.
/// Spans of the rung and of its sampled requests go to `tracer` when on.
RungOutcome RunRung(const Maps& maps, const Oracle& oracle,
                    const QueryMix& mix, const RungConfig& config,
                    uint64_t seed, const Tracer& tracer);

}  // namespace psj::perfbench

#endif  // PSJ_PERFBENCH_SERVE_LOAD_H_
