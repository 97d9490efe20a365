#ifndef PSJ_SERVE_SERVICE_H_
#define PSJ_SERVE_SERVICE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "rtree/rstar_tree.h"
#include "serve/batch_descent.h"
#include "serve/query.h"
#include "trace/trace_sink.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace psj::serve {

/// Trace-track numbering of the serving layer: worker batch spans occupy
/// [0, num_threads); sampled per-request spans render on separate rows at
/// kRequestTrackBase + worker so request lifetimes (admission -> done)
/// never visually collide with the executing batch spans.
constexpr int32_t kRequestTrackBase = 2000;
constexpr int32_t RequestTrack(int worker) {
  return kRequestTrackBase + worker;
}

/// Tuning knobs of one service instance.
struct ServiceConfig {
  /// Worker threads executing queries. Unlike the native join, the calling
  /// thread is NOT a worker: submission and execution are decoupled, as in
  /// a real server front end.
  int num_threads = 1;

  /// Admission queue bound. A Submit() arriving at a full queue is rejected
  /// immediately with RejectReason::kQueueFull — bounded-queue backpressure
  /// instead of unbounded latency collapse.
  size_t queue_capacity = 4096;

  /// Request batching: a worker takes every queued query (up to max_batch)
  /// in one admission cycle and executes the window/point subset through
  /// ONE shared tree descent (serve/batch_descent.h). Off = strictly
  /// one-query-at-a-time execution, the ablation baseline of
  /// bench/serve_qps.
  bool batching = true;

  /// With batching on and fewer than max_batch queries queued, a worker
  /// holds its batch open until the oldest queued query has waited this
  /// long, letting an admission window's arrivals coalesce. 0 = take
  /// whatever is queued without waiting (pure load-driven batching).
  int64_t batch_window_micros = 200;

  /// Largest admission batch a single worker executes at once.
  size_t max_batch = 256;

  /// Optional event sink: one kTask span per executed batch on track
  /// `worker`, wall-clock microseconds since Start(). Unlike the simulator
  /// sinks this one is fed from concurrent workers, so the service
  /// serializes writes behind a mutex that only traced runs take. Null
  /// (default) disables.
  trace::TraceSink* trace = nullptr;

  /// Sampled per-request tracing: with `trace` set and N > 0, every Nth
  /// accepted query (by admission id) records a kRequest span covering its
  /// whole lifetime (admission -> completion, arg0 = query id, arg1 = batch
  /// size) plus a nested kQueueWait span (admission -> execution start) on
  /// track RequestTrack(worker). 0 (default) samples nothing; 1 traces
  /// every request.
  int64_t trace_sample_every = 0;

  /// The registry every serving counter lives in: the service defines its
  /// `serve_*` metrics here at construction, feeds them lock-free (worker w
  /// writes shard w, the submit path shard num_threads), and Stats()
  /// decodes them. It must outlive the service; the first Submit() or
  /// Start() freezes it. Null (default): the service owns one of
  /// num_threads + 1 shards. Two services on one registry each report
  /// their sum, so give every service its own.
  obs::MetricsRegistry* metrics = nullptr;

  /// Test hook: overrides the wall clock used for deadlines and latency
  /// accounting (microseconds, arbitrary epoch). When set, workers also
  /// skip the batch-window wait (the fake clock cannot drive a
  /// condition-variable timeout), so batches take whatever is queued.
  /// Null = std::chrono::steady_clock.
  NowMicrosFn now_micros;
};

/// Outcome of one Submit() call.
struct Submission {
  bool accepted = false;
  uint64_t query_id = 0;  // Valid when accepted.
  RejectReason reason = RejectReason::kNone;
};

/// Monotone service-wide counters plus latency/batch histograms, decoded
/// from one Snapshot() of the service's registry. Exact once Stop() has
/// returned; mid-run each field is exact, and fields may skew against each
/// other by in-flight updates (see obs::MetricsRegistry).
struct ServiceStats {
  int64_t submitted = 0;            // All Submit() calls.
  int64_t accepted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_stopped = 0;
  int64_t rejected_invalid = 0;
  int64_t completed_ok = 0;
  int64_t deadline_exceeded = 0;    // Completed with complete = false.
  int64_t batches_executed = 0;
  int64_t batched_queries = 0;      // Queries served through batches > 1.
  int64_t peak_queue_depth = 0;
  DescentStats descent;             // Summed over every executed query.

  trace::Histogram latency_us;      // Admission -> completion.
  trace::Histogram queue_wait_us;   // Admission -> execution start.
  trace::Histogram batch_size;      // One sample per executed batch.

  double AvgBatchSize() const {
    return batches_executed == 0
               ? 0.0
               : static_cast<double>(batch_size.sum()) /
                     static_cast<double>(batches_executed);
  }
};

/// \brief The high-QPS serving layer: typed queries over two shared sealed
/// R*-trees, executed by a worker pool with request batching, bounded
/// admission, and per-query deadlines.
///
/// Lifecycle: construct (trees must outlive the service and carry a valid
/// SoA cache), Submit()/Execute() freely — submissions are queued even
/// before Start() — then Stop(), which rejects new work, drains every
/// queued query, and joins the workers. Every accepted query receives
/// exactly one callback, on a worker thread; rejected submissions receive
/// none.
class SpatialQueryService {
 public:
  using Callback = std::function<void(QueryResult)>;

  SpatialQueryService(const RStarTree* tree_r, const RStarTree* tree_s,
                      ServiceConfig config = ServiceConfig());
  ~SpatialQueryService();

  SpatialQueryService(const SpatialQueryService&) = delete;
  SpatialQueryService& operator=(const SpatialQueryService&) = delete;

  /// Spawns the worker pool. Idempotent.
  void Start();

  /// Rejects new submissions, drains the queue, joins the workers.
  /// Idempotent; called by the destructor.
  void Stop();

  /// Non-blocking admission. On acceptance the callback fires exactly once
  /// from a worker thread; on rejection (full queue, stopped, invalid
  /// descriptor) it never fires and the reason says why.
  Submission Submit(const QueryDescriptor& descriptor, Callback callback);

  /// Blocking convenience: Submit + wait for the result. The service must
  /// be started (or be started concurrently) or this deadlocks by design.
  /// PSJ_CHECK-fails if the submission is rejected.
  QueryResult Execute(const QueryDescriptor& descriptor);

  /// Decodes one registry Snapshot(); see ServiceStats for exactness.
  ServiceStats Stats() const;

  int num_threads() const { return config_.num_threads; }
  const ServiceConfig& config() const { return config_; }

  // -- Locked introspection (tests and the annotations_compile_fail suite) --

  /// The admission-queue capability; lock it before QueueDepthLocked().
  util::Mutex& admission_mutex() const PSJ_RETURN_CAPABILITY(mu_) {
    return mu_;
  }

  /// Queued-but-unexecuted queries; callers must hold admission_mutex().
  /// Under the analyze preset an unlocked call is a compile error — this is
  /// the seeded-violation surface of tests/annotations_compile_fail/.
  size_t QueueDepthLocked() const PSJ_REQUIRES(mu_) { return queue_.size(); }

 private:
  struct Pending {
    uint64_t id = 0;
    QueryDescriptor descriptor;
    Callback callback;
    int64_t admitted_us = 0;   // Clock() at admission.
    int64_t deadline_us = -1;  // Absolute, -1 = none.
    bool sampled = false;      // Carries a per-request trace span.
  };

  /// Registered handles into registry_. Defined once in the constructor so
  /// the hot path only indexes.
  struct Metrics {
    obs::CounterId submitted, accepted, rejected_queue_full,
        rejected_stopped, rejected_invalid, completed_ok, deadline_miss,
        batches, batched_queries, nodes_visited, node_scans, entry_tests,
        pairs_grouped;
    obs::GaugeId queue_depth, peak_queue_depth;
    obs::HistogramId latency_us, queue_wait_us, batch_size;
  };

  /// Shard of the front-end (Submit) path: one past the worker shards.
  int SubmitShard() const { return config_.num_threads; }

  int64_t Clock() const;

  void WorkerLoop(int worker);

  /// Pops the next admission batch (blocking; honors the batch window).
  /// Returns false when the service is stopping and the queue is empty.
  bool NextBatch(std::vector<Pending>* batch) PSJ_EXCLUDES(mu_);

  /// Executes one admission batch and delivers its callbacks.
  void RunBatch(int worker, std::vector<Pending> batch)
      PSJ_EXCLUDES(mu_, trace_mu_);

  const RStarTree* const tree_r_;
  const RStarTree* const tree_s_;
  const ServiceConfig config_;
  const std::chrono::steady_clock::time_point epoch_;
  const std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* const registry_;  // config_.metrics or the owned.
  Metrics metrics_;  // Handles only; written once in the constructor.

  /// Admission state. No path holds mu_ and trace_mu_ at once; the
  /// annotations keep it that way.
  mutable util::Mutex mu_;
  util::CondVar cv_;
  std::deque<Pending> queue_ PSJ_GUARDED_BY(mu_);
  bool stopping_ PSJ_GUARDED_BY(mu_) = false;
  uint64_t next_id_ PSJ_GUARDED_BY(mu_) = 1;
  /// Deepest queue any Submit() left: the peak gauge only rises with it.
  int64_t peak_queue_depth_ PSJ_GUARDED_BY(mu_) = 0;
  /// Worker threads: spawned by Start() under mu_, moved out and joined by
  /// the single Stop() winner (elected by the stopping_ flip under mu_).
  std::vector<std::thread> workers_ PSJ_GUARDED_BY(mu_);
  bool started_ PSJ_GUARDED_BY(mu_) = false;

  util::Mutex trace_mu_;  // Serializes writes to config_.trace.
};

}  // namespace psj::serve

#endif  // PSJ_SERVE_SERVICE_H_
