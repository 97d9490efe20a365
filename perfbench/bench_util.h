#ifndef PSJ_PERFBENCH_BENCH_UTIL_H_
#define PSJ_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "trace/trace_sink.h"

/// \file
/// Shared pieces of the end-to-end benchmark harness (psj_bench): the
/// benchmark's maps, the clock, order statistics, the metric report, the
/// oracle and the span recorder. Everything here sits outside src/: the
/// harness only calls the library's public functions and times them from
/// the outside.

namespace psj::perfbench {

// ---- Inputs ---------------------------------------------------------------

/// Share of the paper's object counts the benchmark maps hold: all of
/// them, 131,443 streets and 127,312 mixed objects. Smaller scales (the
/// smoke test's) shrink the world by sqrt(scale) per side with them, so
/// object density and MBR overlap stay the paper's.
constexpr double kMapScale = 1.0;

/// Map realizations per run. All of them are set up at once, each on two
/// threads (one per map), so the run's set-up costs the wall time of one
/// while setup_s still takes a median; the join and simulator workloads
/// cycle through them.
constexpr int kRealizations = 2;

/// Generation parameters of one map realization.
struct MapSpec {
  PaperWorkloadSpec workload;
  Rect world;
};

/// The maps of realization `k` of seed `seed`: the paper-calibrated
/// workload (geography 2026, streets 42, mixed 43) at `scale` of its
/// objects and sqrt(scale) of its world side, with kRealizations * seed + k
/// added to the streets seed only. The geography and the mixed map's long
/// rivers and boundaries fix how much the maps overlap; re-drawing them
/// moves the candidate count by +-20% and the join time with it, while a
/// re-drawn street map moves both by a few percent. Seed 0, realization 0
/// is the paper-calibrated pair.
MapSpec BenchSpec(uint64_t seed, int k, double scale = kMapScale);

/// Where one set-up's time went, summed over both maps (each map is
/// generated and indexed on its own thread).
struct SetupTimes {
  double wall_s = 0.0;      // The set-up as the run waits for it.
  double generate_s = 0.0;  // Geography and objects.
  double build_s = 0.0;     // Insertion, Seal() included.
  double seal_ms = 0.0;
};

/// \brief Both maps of one set-up: generated, inserted object by object
/// into R*-trees, and sealed (BuildTreeFromObjects seals).
struct Maps {
  Maps(ObjectStore r, ObjectStore s, RStarTree tr, RStarTree ts)
      : store_r(std::move(r)),
        store_s(std::move(s)),
        tree_r(std::move(tr)),
        tree_s(std::move(ts)) {}

  Maps(const Maps&) = delete;
  Maps& operator=(const Maps&) = delete;

  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;
  SetupTimes times;
};

/// Sets up the maps of every spec at once, one thread per map, and times
/// each set-up.
std::vector<std::unique_ptr<Maps>> SetUpMaps(const std::vector<MapSpec>& specs);

/// Union of both root MBRs: the domain query streams are drawn from.
Rect MapDomain(const Maps& maps);

/// The flat (MBR, object id) input of the partition join, in object order.
std::vector<RTreeEntry> EntriesOf(const ObjectStore& store);

// ---- Clock and order statistics --------------------------------------------

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile: the smallest sample with at least ceil(q * n)
/// samples <= it. With n samples, q = 1 - k/n leaves exactly k beyond it.
/// Returns NaN on an empty vector.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size()))) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(index),
                   samples.end());
  return samples[index];
}

/// The middle sample, or the mean of the two middle ones.
inline double Median(std::vector<double> samples) {
  const size_t n = samples.size();
  if (n % 2 == 1 || n == 0) {
    return Quantile(std::move(samples), 0.5);
  }
  const auto mid = samples.begin() + static_cast<long>(n / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return (*std::max_element(samples.begin(), mid) + *mid) / 2;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  double sum = 0.0;
  for (const double v : samples) {
    sum += v;
  }
  return sum / static_cast<double>(samples.size());
}

/// Peak resident set size of this process so far (VmHWM), in MiB.
double PeakRssMb();

// ---- Report -----------------------------------------------------------------

/// Metrics, operation counts and correctness failures of one harness run.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failure kind (capped), for the human-readable output.
  std::vector<std::string> errors;

  void EndToEnd(std::string name, double value, std::string unit) {
    end_to_end.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Counts `count` failed operations of one kind.
  void Fail(int64_t count, const std::string& what) {
    if (count <= 0) {
      return;
    }
    failed += count;
    if (errors.size() < 32) {
      errors.push_back(std::to_string(count) + " x " + what);
    }
  }
};

// ---- Oracle -------------------------------------------------------------------

/// The filter-step ground truth every engine is checked against.
struct Oracle {
  explicit Oracle(const Maps& maps);

  std::vector<std::pair<uint64_t, uint64_t>> candidates;  // Sorted.
  /// Data-entry MBRs indexed by object id, for the region-join oracle.
  std::vector<Rect> rects_r;
  std::vector<Rect> rects_s;
};

/// One map realization of a run with its oracle.
struct Realization {
  explicit Realization(std::unique_ptr<Maps> built)
      : maps(std::move(built)), oracle(*maps) {}

  std::unique_ptr<Maps> maps;
  Oracle oracle;
};

// ---- Spans --------------------------------------------------------------------

/// \brief Spans recorded around every call the harness makes into a layer,
/// on the harness's own clock (microseconds since the process started
/// measuring). Off when the sink is null; the harness records only from its
/// main thread, or after the threads that produced the timestamps joined.
class Tracer {
 public:
  Tracer(trace::TraceSink* sink, int64_t epoch_ns)
      : sink_(sink), epoch_ns_(epoch_ns) {}

  bool on() const { return sink_ != nullptr; }

  void Span(int32_t track, trace::Category category, const char* name,
            int64_t start_ns, int64_t end_ns, int64_t arg0 = 0,
            int64_t arg1 = 0) const {
    if (sink_ != nullptr) {
      const int64_t start = ToUs(start_ns);
      sink_->Span(track, category, name, start,
                  std::max(ToUs(end_ns), start + 1), arg0, arg1);
    }
  }

 private:
  int64_t ToUs(int64_t ns) const { return (ns - epoch_ns_) / 1000; }

  trace::TraceSink* sink_;
  int64_t epoch_ns_;
};

/// Track of the harness's main-thread layer calls in the exported trace.
constexpr int32_t kMainTrack = 0;

}  // namespace psj::perfbench

#endif  // PSJ_PERFBENCH_BENCH_UTIL_H_
