#ifndef PSJ_CORE_PLACEMENT_H_
#define PSJ_CORE_PLACEMENT_H_

#include <unordered_map>

#include "geo/space_filling.h"
#include "rtree/rstar_tree.h"
#include "storage/page.h"

namespace psj {

/// How R*-tree pages are assigned to the disks of the array.
enum class PagePlacement {
  /// The paper's §4.2 placement: page number modulo the disk count —
  /// "spatial aspects have no impact on the selection of the disk".
  kModulo,
  /// Spatial declustering (our future-work extension, after §5): pages are
  /// ordered along a Hilbert curve by their MBR centers and striped across
  /// the disks, so spatially adjacent pages — which the plane-sweep order
  /// requests around the same time — live on different disks.
  kHilbertStriping,
};

/// Computes the Hilbert-striped disk assignment for all live pages of
/// `tree` over `num_disks` disks, relative to `world` (normally the root
/// MBR). Pages sorted by the Hilbert index of their MBR center get disks
/// 0, 1, ..., d-1, 0, 1, ... in curve order. `tree` must be sealed.
std::unordered_map<PageId, int, PageIdHash> ComputeHilbertStriping(
    const RStarTree& tree, const Rect& world, int num_disks);

}  // namespace psj

#endif  // PSJ_CORE_PLACEMENT_H_
