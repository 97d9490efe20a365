#include "core/placement.h"

#include <algorithm>
#include <vector>

#include "util/check.h"

namespace psj {

std::unordered_map<PageId, int, PageIdHash> ComputeHilbertStriping(
    const RStarTree& tree, const Rect& world, int num_disks) {
  PSJ_CHECK_GT(num_disks, 0);
  PSJ_CHECK(world.IsValid());
  const HilbertCurve curve(12);  // 4096 x 4096 cells: ample for page MBRs.

  struct PageKey {
    uint64_t curve_index;
    uint32_t page_no;
  };
  const NodeSoACache& cache = tree.sealed();
  std::vector<PageKey> keys;
  keys.reserve(tree.num_pages());
  for (uint32_t page_no = 1; page_no < tree.num_pages(); ++page_no) {
    if (tree.IsFreePage(page_no)) {
      continue;
    }
    const Rect mbr = cache.view(page_no).mbr;
    const Point center =
        mbr.IsValid() ? mbr.Center() : Point{world.xl, world.yl};
    keys.push_back(PageKey{curve.PointIndex(center, world), page_no});
  }
  std::sort(keys.begin(), keys.end(), [](const PageKey& a, const PageKey& b) {
    if (a.curve_index != b.curve_index) return a.curve_index < b.curve_index;
    return a.page_no < b.page_no;
  });

  std::unordered_map<PageId, int, PageIdHash> placement;
  placement.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    placement[PageId{tree.tree_id(), keys[i].page_no}] =
        static_cast<int>(i % static_cast<size_t>(num_disks));
  }
  return placement;
}

}  // namespace psj
