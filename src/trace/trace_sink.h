#ifndef PSJ_TRACE_TRACE_SINK_H_
#define PSJ_TRACE_TRACE_SINK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace psj::trace {

/// Virtual time in microseconds — numerically identical to sim::SimTime.
/// The trace layer redeclares it so psj_trace depends only on psj_util and
/// every simulated component (including psj_sim itself) can link against it
/// without a cycle.
using TraceTime = int64_t;

/// What an event describes; fixed at the instrumentation site so the
/// exporters and the timeline analyzer can classify events without string
/// comparisons.
enum class Category : uint8_t {
  kTask,            // One work item (node pair / subtree) executed.
  kTaskCreation,    // The sequential phase 1+2 on processor 0.
  kNodePair,        // Entry-matching of one node pair (instant, match count).
  kRefinement,      // Exact-geometry waiting period of one candidate.
  kBufferLocalHit,  // Page served from the own buffer partition.
  kBufferRemoteHit, // Page transferred from another processor's buffer.
  kBufferMiss,      // Page read from disk (span covers queue + service).
  kPathBufferHit,   // Node found on the cached root-to-leaf path.
  kDiskQueue,       // Disk-track span: request waiting for the server.
  kDiskService,     // Disk-track span: request being served.
  kSteal,           // Successful reassignment round-trip on the thief.
  kStealRequest,    // Help request sent (instant).
  kStealFail,       // Victim had nothing left when the request arrived.
  kProcess,         // Scheduler-level process lifecycle (finish instant).
  kRequest,         // Wall-clock serving: one sampled query, admit -> done.
  kQueueWait,       // Wall-clock serving: sampled query's admission wait.
};

std::string_view ToString(Category category);

/// Track numbering of the exported timelines: simulated processors occupy
/// [0, num_processors); disks are offset so they render as separate rows.
constexpr int32_t kDiskTrackBase = 1000;
constexpr int32_t DiskTrack(int disk) { return kDiskTrackBase + disk; }

/// One recorded event. Spans carry start < end; instants have start == end.
/// `name` must point to static storage (instrumentation sites pass string
/// literals) so recording never allocates.
struct TraceEvent {
  TraceTime start = 0;
  TraceTime end = 0;
  int32_t track = 0;
  Category category = Category::kTask;
  const char* name = nullptr;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
};

/// \brief Fixed-bucket latency histogram over virtual microseconds.
///
/// Buckets are powers of two: bucket 0 holds value 0, bucket i holds
/// [2^(i-1), 2^i). 40 buckets cover every representable SimTime, so Record
/// never allocates and never loses a sample.
class Histogram {
 public:
  static constexpr int kNumBuckets = 40;

  void Record(TraceTime value);

  /// Adds another histogram's samples into this one — the shard-aggregation
  /// primitive of the obs metrics registry (each worker shard merges into
  /// one snapshot histogram). Count/sum add; min/max widen.
  void Merge(const Histogram& other);

  /// Value at quantile q in [0, 1]: the smallest v such that at least
  /// ceil(q * count) samples are <= v, linearly interpolated inside the
  /// matching power-of-two bucket and clamped to [min(), max()]. Exact at
  /// the resolution of the log buckets (relative error < 2x, and much
  /// better once clamped). Returns 0 on an empty histogram.
  TraceTime ValueAtQuantile(double q) const;

  int64_t total_count() const { return total_count_; }
  TraceTime sum() const { return sum_; }
  TraceTime min() const { return total_count_ == 0 ? 0 : min_; }
  TraceTime max() const { return max_; }
  int64_t bucket_count(int bucket) const {
    return counts_[static_cast<size_t>(bucket)];
  }
  /// Inclusive lower bound of a bucket (0, 1, 2, 4, 8, ...).
  static TraceTime BucketLowerBound(int bucket);
  /// Rebuilds a histogram from raw bucket counts plus summary stats — the
  /// decode path of the obs registry's atomic shard cells. `count` becomes
  /// the sum of `counts`; min/max are clamped sane against emptiness.
  static Histogram FromBuckets(const int64_t counts[kNumBuckets],
                               TraceTime sum, TraceTime min, TraceTime max);
  /// Highest non-empty bucket index, or -1 when empty.
  int HighestBucket() const;

 private:
  int64_t counts_[kNumBuckets] = {};
  int64_t total_count_ = 0;
  TraceTime sum_ = 0;
  TraceTime min_ = 0;
  TraceTime max_ = 0;
};

/// \brief Event collector of one simulated run: per-track spans/instants
/// and named fixed-bucket histograms.
///
/// Not thread safe by design: one sink belongs to exactly one simulation,
/// whose scheduler runs one process at a time on one thread's fibers, so
/// recording needs no locks.
/// Instrumentation sites hold a `TraceSink*` that is null by default; the
/// disabled path is a single pointer test with no allocation and no
/// side effects.
///
/// Determinism contract: events are recorded in dispatch order, which is a
/// pure function of the virtual-time schedule — identical across scheduler
/// backends and repeated runs, so exports are byte-identical.
class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  // ---- Recording (instrumentation sites) ----

  /// Records a completed span [start, end) on `track`.
  void Span(int32_t track, Category category, const char* name,
            TraceTime start, TraceTime end, int64_t arg0 = 0,
            int64_t arg1 = 0) {
    events_.push_back(
        TraceEvent{start, end, track, category, name, arg0, arg1});
  }

  /// Records a zero-duration event at `ts` on `track`.
  void Instant(int32_t track, Category category, const char* name,
               TraceTime ts, int64_t arg0 = 0, int64_t arg1 = 0) {
    events_.push_back(TraceEvent{ts, ts, track, category, name, arg0, arg1});
  }

  /// Named histogram, created on first use. The returned pointer is stable
  /// for the sink's lifetime — instrumented components look it up once and
  /// cache it.
  Histogram* histogram(std::string_view name);

  /// Human-readable label of a track in the exported views.
  void SetTrackName(int32_t track, std::string name);

  // ---- Introspection (exporters, analyzers, tests) ----

  const std::vector<TraceEvent>& events() const { return events_; }
  /// Histogram names in registration order.
  const std::vector<std::string>& histogram_names() const {
    return histogram_names_;
  }
  const Histogram* FindHistogram(std::string_view name) const;
  /// The registered track name, or "track <id>".
  std::string TrackName(int32_t track) const;
  /// Registered track ids in ascending order.
  std::vector<int32_t> Tracks() const;

 private:
  std::vector<TraceEvent> events_;
  std::vector<std::string> histogram_names_;
  std::vector<std::unique_ptr<Histogram>> histograms_;
  std::unordered_map<std::string, size_t> histogram_index_;
  std::unordered_map<int32_t, std::string> track_names_;
};

}  // namespace psj::trace

#endif  // PSJ_TRACE_TRACE_SINK_H_
