#ifndef PSJ_NATIVE_NATIVE_JOIN_H_
#define PSJ_NATIVE_NATIVE_JOIN_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "join/node_match.h"
#include "obs/metrics.h"
#include "rtree/rstar_tree.h"

/// \file
/// The native multicore execution backend: the same join algorithms the
/// simulator models — task creation, assignment, and stealing over node
/// pairs — executed on real host threads over fully in-memory R*-trees.
/// No simulated disks or buffers: every node access is a pointer chase,
/// every cost is wall-clock. The simulator stays the bit-deterministic
/// oracle; this engine is what runs fast on the hardware.
///
/// src/native/ is the sanctioned host-threading zone outside the scheduler
/// backend (tools/psj_lint.py allowlists the directory); nothing under
/// src/sim, src/core, or src/join may spawn threads.

namespace psj::native {

/// Configuration of one native join run (either engine).
struct NativeJoinConfig {
  /// Worker threads; the calling thread doubles as worker 0, so 1 spawns
  /// no threads at all.
  int num_threads = 1;

  /// Deterministic mode: static (contiguous-range) task assignment, no
  /// work stealing, and per-worker outputs merged in worker order then
  /// sorted — the result vector is bit-identical run to run regardless of
  /// thread scheduling. Off (the default): shared-queue dynamic assignment
  /// with stealing; the result is identical *as a set* but pair order
  /// depends on the host schedule.
  bool deterministic = false;

  /// Task reassignment between workers (ignored — always off — in
  /// deterministic mode).
  bool enable_stealing = true;

  /// Task creation descends until m >= factor * num_threads (§3.1), same
  /// rule as the simulated engine.
  double task_creation_factor = 3.0;

  /// Optional live metrics: when set, the run defines the `native_*`
  /// counters plus the per-task duration histogram, freezes the registry,
  /// and feeds worker w's updates through shard w. Also turns on per-task
  /// wall-clock timing (two steady_clock reads per task), which fills
  /// NativeWorkerStats::busy_us; with metrics null (the default) the
  /// execution path is exactly the uninstrumented one — a single pointer
  /// test, bounded <1% by bench/micro_obs.
  obs::MetricsRegistry* metrics = nullptr;

  NodeMatchOptions match;
};

/// Per-worker counters of one native run.
struct NativeWorkerStats {
  int64_t tasks_executed = 0;       // Items popped (initial + children).
  int64_t node_pairs_processed = 0;
  int64_t steals = 0;               // Successful StealHalf transfers.
  int64_t steal_attempts = 0;
  int64_t candidates = 0;           // Leaf-level pairs this worker emitted.
  /// Wall time spent inside task execution, microseconds, summed per task
  /// in nanoseconds and converted once (a task takes about a
  /// microsecond). Only measured when NativeJoinConfig::metrics is set
  /// (per-task timing costs two clock reads); 0 otherwise. busy_us /
  /// wall_ms is the worker's utilization — the imbalance figure the
  /// paper's speedup analysis turns on.
  int64_t busy_us = 0;
};

/// Result of one native join run. `candidates` is the filter-step output:
/// (object id in r, object id in s) for every intersecting MBR pair.
struct NativeJoinResult {
  std::vector<std::pair<uint64_t, uint64_t>> candidates;
  int64_t num_tasks = 0;    // Initial tasks created by phase 1.
  int task_level = 0;
  int64_t node_pairs_processed = 0;
  double wall_ms = 0.0;     // Whole join, task creation included.
  std::vector<NativeWorkerStats> per_worker;

  /// Sum of one counter over per_worker.
  int64_t TotalSteals() const;

  std::string Summary() const;
};

/// \brief The R-tree spatial join of [BKS 93] on real threads: phase 1
/// creates node-pair tasks with the shared BuildJoinTasks, phase 2 assigns
/// them (static ranges in deterministic mode, a shared task queue
/// otherwise), phase 3 runs one worker per thread — own per-level workload
/// first, then the shared queue, then stealing half of the most-loaded
/// victim's highest level, exactly the paper's §3.3/§3.4 structure. The
/// per-node-pair inner loop is the SIMD RectBatch plane-sweep kernel.
///
/// The candidate set equals SequentialRTreeJoin's as a set on every input;
/// with `config.deterministic` the whole result vector is bit-identical
/// across runs and thread counts. Both trees must be sealed
/// (RStarTree::sealed() aborts otherwise).
NativeJoinResult NativeRTreeJoin(const RStarTree& tree_r,
                                 const RStarTree& tree_s,
                                 const NativeJoinConfig& config =
                                     NativeJoinConfig());

/// std::thread::hardware_concurrency() (at least 1), exported so callers
/// outside the threading-allowlisted src/native/ (the report layer, the CLI)
/// can record it without touching <thread> themselves.
int HostHardwareConcurrency();

/// Sorts by (r, s) id — the canonical order of deterministic outputs and
/// set comparisons.
void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* pairs);

/// True iff the two pair lists are equal as sets (duplicates collapsed).
bool PairSetsEqual(std::vector<std::pair<uint64_t, uint64_t>> a,
                   std::vector<std::pair<uint64_t, uint64_t>> b);

}  // namespace psj::native

#endif  // PSJ_NATIVE_NATIVE_JOIN_H_
