#ifndef PSJ_CORE_PARALLEL_JOIN_H_
#define PSJ_CORE_PARALLEL_JOIN_H_

#include "core/join_config.h"
#include "core/join_plan.h"
#include "core/join_stats.h"
#include "data/map_object.h"
#include "rtree/rstar_tree.h"
#include "util/statusor.h"

namespace psj {

/// \brief The paper's parallel spatial join: task creation, task assignment
/// and parallel task execution over two R*-trees on the simulated
/// shared-virtual-memory multiprocessor.
///
/// Each Run() simulates one join from cold buffers on a fresh SimMachine
/// (core/sim_machine.h): one simulated processor per configured CPU;
/// processor 0 creates and assigns the tasks (pairs of intersecting
/// subtrees ordered by the local plane-sweep order), all execute them in
/// parallel with the configured buffer organization / assignment /
/// reassignment strategy, and the run reports virtual-time statistics
/// (response time, disk accesses, per-processor finish times, ...).
///
/// The simulated processors schedule work and charge its virtual time; the
/// geometry comes from a JoinPlan. Which node pairs match, which
/// candidates pass the second filter and which are answers depend on the
/// trees and the JoinPlanKey alone, so a plan built once serves every
/// config of its key: Run(config) builds one for the call, and
/// ExperimentDriver::RunAll builds one per distinct key of a sweep and
/// passes it to Run(config, plan).
///
/// Thread safety: Run() is synchronous and may be called repeatedly and
/// concurrently; the trees, object stores and plan must outlive the call
/// and are not modified.
class ParallelSpatialJoin {
 public:
  /// `objects_r/s` provide the exact geometry for the ground-truth
  /// refinement test; they may be null when `config.compute_answers` is
  /// false. The two trees must have distinct tree ids unless they are the
  /// same tree (self join).
  ParallelSpatialJoin(const RStarTree* tree_r, const RStarTree* tree_s,
                      const ObjectStore* objects_r,
                      const ObjectStore* objects_s);

  /// The plan of JoinPlanKey::Of(config) over this join's inputs, after the
  /// checks Run() makes.
  StatusOr<JoinPlan> BuildPlan(const ParallelJoinConfig& config) const;

  /// Simulates one parallel join under `config` on a plan built for this
  /// call. InvalidArgument for an invalid config; FailedPrecondition when
  /// either tree is not sealed.
  StatusOr<JoinResult> Run(const ParallelJoinConfig& config) const;

  /// Run(config) on `plan`, which must come from BuildPlan() of this join
  /// (or of one over the same inputs) for a config of the same JoinPlanKey;
  /// InvalidArgument otherwise.
  StatusOr<JoinResult> Run(const ParallelJoinConfig& config,
                           const JoinPlan& plan) const;

 private:
  Status CheckInputs(const ParallelJoinConfig& config) const;

  const RStarTree* tree_r_;
  const RStarTree* tree_s_;
  const ObjectStore* objects_r_;
  const ObjectStore* objects_s_;
};

}  // namespace psj

#endif  // PSJ_CORE_PARALLEL_JOIN_H_
