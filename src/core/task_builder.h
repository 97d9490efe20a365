#ifndef PSJ_CORE_TASK_BUILDER_H_
#define PSJ_CORE_TASK_BUILDER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/workload.h"
#include "join/node_match.h"
#include "rtree/rstar_tree.h"

namespace psj {

/// \brief Engine hooks of the task builder. Every hook is optional (null =
/// free): the simulated engine charges virtual time and routes node reads
/// through its buffer pool; the native engine reads the in-memory trees
/// directly and passes no hooks at all.
struct JoinTaskHooks {
  /// Invoked immediately before the builder reads the sealed image of
  /// `tree`'s page `page`.
  std::function<void(const RStarTree& tree, uint32_t page, int level)>
      fetch_node;
  /// One MBR intersection test during the height-alignment phase.
  std::function<void()> charge_alignment_test;
  /// One node-pair match while descending toward the task level.
  std::function<void(const NodeMatchCounts& counts)> charge_match;
};

/// The created tasks of the paper's phase 1, in local plane-sweep order.
struct JoinTaskSet {
  std::vector<NodePair> tasks;
  /// Common tree level of the tasks (0 when `tasks` is empty).
  int task_level = 0;
};

/// \brief Phase 1 of the paper's §3.1 framework, shared by the simulated and
/// the native execution engines: synchronized descent of the two trees from
/// the roots, first aligning unequal heights (expanding only the deeper
/// side), then descending level by level until the number of intersecting
/// subtree pairs m reaches `task_creation_factor * num_processors` (or the
/// data level). Children are expanded in local plane-sweep order (ascending
/// xl, ties by entry id; ChildOrderByXl while aligning), so the task list
/// preserves spatial locality. Both trees must be sealed.
///
/// The traversal sequence — which nodes are read, which node pairs are
/// matched, and in which order — is a pure function of the trees and
/// options; engines differ only in what the hooks charge for each step.
/// `scratch`, when non-null, supplies the matching buffers.
JoinTaskSet BuildJoinTasks(const RStarTree& tree_r, const RStarTree& tree_s,
                           int num_processors, double task_creation_factor,
                           const NodeMatchOptions& match_options,
                           const JoinTaskHooks& hooks = JoinTaskHooks(),
                           NodeMatchScratch* scratch = nullptr);

}  // namespace psj

#endif  // PSJ_CORE_TASK_BUILDER_H_
