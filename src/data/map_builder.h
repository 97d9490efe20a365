#ifndef PSJ_DATA_MAP_BUILDER_H_
#define PSJ_DATA_MAP_BUILDER_H_

#include <vector>

#include "data/map_object.h"
#include "rtree/rstar_tree.h"
#include "rtree/str_loader.h"
#include "util/status.h"

namespace psj {

/// How to construct the R*-tree over a map's MBRs.
enum class TreeBuildMethod {
  kInsertion,  // Dynamic R* insertion — what the paper's trees used.
  kStr,        // Sort-Tile-Recursive bulk load (extension / ablation).
};

/// Builds the R*-tree organizing the MBRs of `objects`; entry ids are the
/// object ids. With kStr, `str_fill` selects the node occupancy.
RStarTree BuildTreeFromObjects(uint32_t tree_id,
                               ObjectRange objects,
                               TreeBuildMethod method =
                                   TreeBuildMethod::kInsertion,
                               RTreeOptions options = RTreeOptions(),
                               double str_fill = 0.7);

/// Checks that `tree` indexes exactly the objects of `store`, as a tree and
/// a store loaded from separate files must: Corruption when the tree's data
/// entries, counted through its sealed views, are not store.size() in
/// number, or when a data entry's id is not below store.size(), so that no
/// join or query can ask the store for an object it lacks.
Status CheckTreeMatchesStore(const RStarTree& tree, const ObjectStore& store);

}  // namespace psj

#endif  // PSJ_DATA_MAP_BUILDER_H_
