#ifndef PSJ_JOIN_SEQUENTIAL_JOIN_H_
#define PSJ_JOIN_SEQUENTIAL_JOIN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "data/map_object.h"
#include "join/node_match.h"
#include "rtree/rstar_tree.h"

namespace psj {

/// Options of the sequential R*-tree join.
struct SequentialJoinOptions {
  NodeMatchOptions match;
};

/// Result of a (pure, unsimulated) filter-step join: the candidate pairs in
/// emission order plus algorithm counters.
struct SequentialJoinResult {
  std::vector<std::pair<uint64_t, uint64_t>> candidates;
  int64_t node_pairs_processed = 0;
  int64_t node_reads = 0;  // Node fetches, ignoring any buffering.
};

/// \brief The sequential spatial join filter step of [BKS 93]: synchronized
/// depth-first traversal of two R*-trees, matching entries per node pair
/// with search-space restriction and plane-sweep.
///
/// Used as the ground truth for the parallel algorithms (identical candidate
/// sets) and as the t(1) reference algorithm. Trees of different heights are
/// handled by descending the deeper tree until levels align. Both trees
/// must be sealed (RStarTree::sealed() aborts otherwise).
SequentialJoinResult SequentialRTreeJoin(
    const RStarTree& tree_r, const RStarTree& tree_s,
    const SequentialJoinOptions& options = SequentialJoinOptions());

/// Reference O(|R|·|S|) object-level join for tests: every pair of objects
/// whose MBRs intersect (`candidates`) and, of those, the pairs whose exact
/// polylines intersect (`answers`).
struct BruteForceJoinResult {
  std::vector<std::pair<uint64_t, uint64_t>> candidates;
  std::vector<std::pair<uint64_t, uint64_t>> answers;
};
BruteForceJoinResult BruteForceObjectJoin(const ObjectStore& store_r,
                                          const ObjectStore& store_s);

}  // namespace psj

#endif  // PSJ_JOIN_SEQUENTIAL_JOIN_H_
