#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/placement.h"
#include "storage/disk_array.h"
#include "data/generator.h"
#include "data/map_builder.h"

namespace psj {
namespace {

RStarTree MakeTree(int num_objects) {
  return BuildTreeFromObjects(
      1, GenerateUniformSegments(5, num_objects, 0.01));
}

TEST(HilbertStripingTest, CoversEveryLivePageExactlyOnce) {
  const RStarTree tree = MakeTree(3'000);
  const auto placement =
      ComputeHilbertStriping(tree, tree.root_mbr(), 4);
  size_t live_pages = 0;
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (!tree.IsFreePage(p)) {
      ++live_pages;
      EXPECT_EQ(placement.count(PageId{tree.tree_id(), p}), 1u)
          << "page " << p;
    }
  }
  EXPECT_EQ(placement.size(), live_pages);
}

TEST(HilbertStripingTest, BalancedAcrossDisks) {
  const RStarTree tree = MakeTree(5'000);
  const int disks = 8;
  const auto placement =
      ComputeHilbertStriping(tree, tree.root_mbr(), disks);
  std::vector<int> counts(disks, 0);
  for (const auto& [page, disk] : placement) {
    ASSERT_GE(disk, 0);
    ASSERT_LT(disk, disks);
    ++counts[static_cast<size_t>(disk)];
  }
  // Striping keeps the load within 1 page of perfectly even.
  const int min = *std::min_element(counts.begin(), counts.end());
  const int max = *std::max_element(counts.begin(), counts.end());
  EXPECT_LE(max - min, 1);
}

TEST(HilbertStripingTest, SpatialNeighborsLandOnDifferentDisks) {
  // For pages whose MBR centers are close, striping should usually assign
  // different disks (that is its purpose). Sample leaf pages of the same
  // parent: consecutive in curve order more often than not.
  const RStarTree tree = MakeTree(5'000);
  const int disks = 8;
  const auto placement =
      ComputeHilbertStriping(tree, tree.root_mbr(), disks);
  int same_disk = 0;
  int pairs = 0;
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (tree.IsFreePage(p)) continue;
    const NodeSoAView node = tree.sealed().view(p);
    if (node.is_leaf() || node.size() < 2) continue;
    for (size_t e = 1; e < node.size(); ++e) {
      const int d0 =
          placement.at(PageId{tree.tree_id(), node.child_page(e - 1)});
      const int d1 = placement.at(PageId{tree.tree_id(), node.child_page(e)});
      same_disk += d0 == d1 ? 1 : 0;
      ++pairs;
    }
  }
  ASSERT_GT(pairs, 50);
  // Random placement would collide ~1/8 of the time; striping must not be
  // much worse than random and should be visibly better than half.
  EXPECT_LT(static_cast<double>(same_disk) / pairs, 0.3);
}

TEST(HilbertStripingTest, DiskArrayHonorsExplicitPlacement) {
  const RStarTree tree = MakeTree(1'000);
  DiskArrayModel disks(4, DiskParameters());
  auto placement = ComputeHilbertStriping(tree, tree.root_mbr(), 4);
  const auto copy = placement;
  disks.SetExplicitPlacement(std::move(placement));
  for (const auto& [page, disk] : copy) {
    EXPECT_EQ(disks.DiskOf(page), disk);
  }
  // Unlisted pages (other file id) fall back to modulo.
  EXPECT_EQ(disks.DiskOf(PageId{99, 5}), static_cast<int>((5 + 99) % 4));
}

}  // namespace
}  // namespace psj
