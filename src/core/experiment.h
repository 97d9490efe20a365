#ifndef PSJ_CORE_EXPERIMENT_H_
#define PSJ_CORE_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/parallel_join.h"
#include "util/statusor.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "rtree/rstar_tree.h"

namespace psj {

/// Parameters of the paper-scale synthetic workload: two TIGER-like maps of
/// one shared geography, organized by R*-trees with the paper's page layout
/// (§4.1, Table 1).
struct PaperWorkloadSpec {
  uint64_t geography_seed = 2026;
  int num_centers = 280;
  StreetsSpec streets;  // 131,443 street segments by default.
  MixedSpec mixed;      // 127,312 boundary/river/rail fragments by default.
  TreeBuildMethod build = TreeBuildMethod::kInsertion;

  /// Scales both object counts by `factor` (for fast tests and examples).
  PaperWorkloadSpec Scaled(double factor) const;
};

/// \brief The generated maps plus their R*-trees — the fixed input shared
/// by every experiment of §4. Build once, join many times.
class PaperWorkload {
 public:
  /// Generates both maps and builds their trees by R* insertion: about
  /// 0.1 s at scale 0.05 and a few seconds at full scale on one x86-64
  /// core, so every consumer builds fresh rather than caching trees.
  explicit PaperWorkload(const PaperWorkloadSpec& spec = PaperWorkloadSpec());

  PaperWorkload(const PaperWorkload&) = delete;
  PaperWorkload& operator=(const PaperWorkload&) = delete;

  const ObjectStore& store_r() const { return store_r_; }
  const ObjectStore& store_s() const { return store_s_; }
  const RStarTree& tree_r() const { return tree_r_; }
  const RStarTree& tree_s() const { return tree_s_; }

  /// m of Table 1: the number of intersecting MBR pairs in the two root
  /// pages — the initial task count of the parallel join.
  int64_t CountRootTaskPairs() const;

  /// Runs one parallel join over this workload.
  StatusOr<JoinResult> RunJoin(const ParallelJoinConfig& config) const;

  /// Runs a batch of independent joins over this workload concurrently on
  /// the parallel experiment driver (see ExperimentDriver); results come
  /// back in input order. `num_threads <= 0` picks the driver default.
  std::vector<StatusOr<JoinResult>> RunJoins(
      const std::vector<ParallelJoinConfig>& configs,
      int num_threads = 0) const;

  /// Multi-line Table 1-style description of both trees.
  std::string DescribeTrees() const;

 private:
  ObjectStore store_r_;
  ObjectStore store_s_;
  RStarTree tree_r_;
  RStarTree tree_s_;
};

/// \brief Outcome of a tie-break perturbation check (the dynamic half of
/// the determinism analysis; see check/access_registry.h for the other).
struct TieBreakInvarianceReport {
  int num_runs = 0;              // Identity run + one per seed.
  bool results_identical = false;
  bool traces_identical = false;
  /// Empty when ok(); otherwise names the first diverging seed and what
  /// differed.
  std::string divergence;

  bool ok() const { return results_identical && traces_identical; }
};

/// Runs `config` once with the identity tie-break and once per entry of
/// `seeds` with a seeded tie-break permutation (sim::TieBreak::Seeded),
/// each run tracing into a fresh sink. Equal-virtual-time dispatch order is
/// reshuffled by every seed, so any same-time shared-state access whose
/// order matters shows up as a diverging JoinResult or a diverging
/// exported Chrome trace. A passing report means the run's results are a
/// pure function of the simulation model, byte for byte.
TieBreakInvarianceReport VerifyTieBreakInvariance(
    const PaperWorkload& workload, ParallelJoinConfig config,
    const std::vector<uint64_t>& seeds);

/// \brief Parallel experiment driver: a small thread pool that executes
/// mutually independent simulated joins concurrently over a shared const
/// workload.
///
/// The paper's figures are parameter sweeps — dozens of
/// ParallelSpatialJoin::Run() calls that differ only in configuration.
/// Each run is a self-contained deterministic simulation (its own
/// scheduler, disk array and buffer pool; the trees and object stores are
/// only read), so the sweep parallelizes perfectly: results are
/// bit-identical to sequential execution, in input order, regardless of
/// pool width or completion order. Most of a sweep's configs share one
/// JoinPlanKey, so the driver builds one JoinPlan per distinct key, once
/// per RunAll call, and every run of that key reads it.
class ExperimentDriver {
 public:
  /// `num_threads <= 0` resolves to DefaultNumThreads().
  explicit ExperimentDriver(int num_threads = 0);

  /// Worker threads used by RunAll (at most one per config).
  int num_threads() const { return num_threads_; }

  /// PSJ_EXPERIMENT_THREADS from the environment if positive, otherwise
  /// the hardware concurrency (at least 1).
  static int DefaultNumThreads();

  /// Runs every config through `join.Run()` on the pool. First, on the
  /// calling thread, it builds one plan per distinct JoinPlanKey of the
  /// configs (`join.BuildPlan()`); the runs then share each plan read-only
  /// through `join.Run(config, plan)`. No plan outlives the call. A config
  /// that fails its checks returns its error and the others still run.
  /// The caller's thread participates in the pool, so RunAll(join, {c})
  /// adds no thread overhead. Traced configs are supported — each run
  /// records into its own sink — but two configs sharing one TraceSink
  /// would interleave their events, so all but the first such config fail
  /// with InvalidArgument.
  std::vector<StatusOr<JoinResult>> RunAll(
      const ParallelSpatialJoin& join,
      const std::vector<ParallelJoinConfig>& configs) const;

 private:
  int num_threads_;
};

}  // namespace psj

#endif  // PSJ_CORE_EXPERIMENT_H_
