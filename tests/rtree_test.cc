#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "rtree/rstar_tree.h"
#include "rtree/validator.h"
#include "storage/page_file.h"
#include "util/rng.h"

namespace psj {
namespace {

// Small fanouts exercise splits and reinsertion with few entries.
RTreeOptions SmallOptions() {
  RTreeOptions options;
  options.max_dir_entries = 8;
  options.max_data_entries = 8;
  return options;
}

Rect RandomRect(Rng& rng, double extent = 0.05) {
  const double x = rng.NextDoubleInRange(0.0, 1.0);
  const double y = rng.NextDoubleInRange(0.0, 1.0);
  return Rect(x, y, x + rng.NextDoubleInRange(0.0, extent),
              y + rng.NextDoubleInRange(0.0, extent));
}

// 64-bit FNV-1a over the root page, the height and every page's level,
// entry rect bits and ids: equal fingerprints mean page-identical trees.
uint64_t TreeFingerprint(const RStarTree& tree) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  add(tree.root_page());
  add(static_cast<uint64_t>(tree.height()));
  add(tree.num_pages());
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (tree.IsFreePage(p)) {
      add(~uint64_t{0});
      continue;
    }
    const RTreeNode& n = tree.node(p);
    add(static_cast<uint64_t>(n.level));
    add(n.entries.size());
    for (const RTreeEntry& e : n.entries) {
      add(std::bit_cast<uint64_t>(e.rect.xl));
      add(std::bit_cast<uint64_t>(e.rect.yl));
      add(std::bit_cast<uint64_t>(e.rect.xu));
      add(std::bit_cast<uint64_t>(e.rect.yu));
      add(e.id);
    }
  }
  return hash;
}

TEST(RStarTreeTest, EmptyTreeIsValid) {
  RStarTree tree(1, SmallOptions());
  EXPECT_EQ(tree.height(), 1);
  EXPECT_EQ(tree.num_data_entries(), 0);
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_TRUE(tree.WindowQuery(Rect(0, 0, 1, 1)).empty());
}

TEST(RStarTreeTest, SingleInsertIsQueryable) {
  RStarTree tree(1, SmallOptions());
  tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 42);
  EXPECT_EQ(tree.num_data_entries(), 1);
  const auto hits = tree.WindowQuery(Rect(0, 0, 1, 1));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 42u);
  EXPECT_TRUE(tree.WindowQuery(Rect(0.5, 0.5, 0.6, 0.6)).empty());
}

TEST(RStarTreeTest, GrowsAndStaysValid) {
  RStarTree tree(1, SmallOptions());
  Rng rng(3);
  for (uint64_t i = 0; i < 500; ++i) {
    tree.Insert(RandomRect(rng), i);
    if (i % 50 == 49) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "after insert " << i;
    }
  }
  EXPECT_GT(tree.height(), 1);
  EXPECT_EQ(tree.num_data_entries(), 500);
  EXPECT_TRUE(ValidateRTree(tree).ok());
}

TEST(RStarTreeTest, WindowQueryMatchesLinearScan) {
  RStarTree tree(1, SmallOptions());
  Rng rng(4);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 400; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  for (int q = 0; q < 50; ++q) {
    const Rect window = RandomRect(rng, 0.4);
    std::set<uint64_t> expected;
    for (uint64_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(window)) expected.insert(i);
    }
    auto hits = tree.WindowQuery(window);
    const std::set<uint64_t> actual(hits.begin(), hits.end());
    EXPECT_EQ(hits.size(), actual.size()) << "duplicate result";
    ASSERT_EQ(actual, expected) << "query " << q;
  }
}

TEST(RStarTreeTest, DeleteRemovesOnlyTargetedEntry) {
  RStarTree tree(1, SmallOptions());
  Rng rng(5);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 200; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  EXPECT_TRUE(tree.Delete(rects[77], 77));
  EXPECT_FALSE(tree.Delete(rects[77], 77));  // Already gone.
  EXPECT_EQ(tree.num_data_entries(), 199);
  EXPECT_TRUE(ValidateRTree(tree).ok());
  const auto hits = tree.WindowQuery(rects[77]);
  EXPECT_EQ(std::count(hits.begin(), hits.end(), 77u), 0);
}

TEST(RStarTreeTest, DeleteEverythingShrinksTree) {
  RStarTree tree(1, SmallOptions());
  Rng rng(6);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 300; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], i)) << i;
    if (i % 25 == 24) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "after delete " << i;
    }
  }
  EXPECT_EQ(tree.num_data_entries(), 0);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(ValidateRTree(tree).ok());
}

TEST(RStarTreeTest, MixedInsertDeleteWorkloadStaysConsistent) {
  RStarTree tree(1, SmallOptions());
  Rng rng(7);
  std::vector<std::pair<Rect, uint64_t>> live;
  uint64_t next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const Rect r = RandomRect(rng);
      tree.Insert(r, next_id);
      live.emplace_back(r, next_id);
      ++next_id;
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
    }
    if (step % 100 == 99) {
      ASSERT_TRUE(ValidateRTree(tree).ok()) << "step " << step;
      ASSERT_EQ(tree.num_data_entries(),
                static_cast<int64_t>(live.size()));
    }
  }
  // Every live object findable, in full.
  auto hits = tree.WindowQuery(Rect(0, 0, 2, 2));
  EXPECT_EQ(hits.size(), live.size());
}

TEST(RStarTreeTest, DuplicateRectsWithDistinctIdsSupported) {
  RStarTree tree(1, SmallOptions());
  const Rect r(0.4, 0.4, 0.5, 0.5);
  for (uint64_t i = 0; i < 30; ++i) {
    tree.Insert(r, i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.WindowQuery(r).size(), 30u);
  EXPECT_TRUE(tree.Delete(r, 17));
  EXPECT_EQ(tree.WindowQuery(r).size(), 29u);
}

TEST(RStarTreeTest, ForcedReinsertCanBeDisabled) {
  RTreeOptions options = SmallOptions();
  options.enable_forced_reinsert = false;
  RStarTree tree(1, options);
  Rng rng(8);
  for (uint64_t i = 0; i < 300; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), 300);
}

TEST(RStarTreeTest, ShapeStatsCountPages) {
  RStarTree tree(1, SmallOptions());
  Rng rng(9);
  for (uint64_t i = 0; i < 400; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  const RTreeShapeStats stats = tree.ComputeShapeStats();
  EXPECT_EQ(stats.height, tree.height());
  EXPECT_EQ(stats.num_data_entries, 400);
  EXPECT_GT(stats.num_data_pages, 400 / 8);
  EXPECT_GT(stats.num_dir_pages, 0);
  EXPECT_GT(stats.avg_data_fill, 0.4);
  EXPECT_LE(stats.avg_data_fill, 1.0);
}

TEST(RStarTreeTest, PageFileRoundTrip) {
  RStarTree tree(5, SmallOptions());
  Rng rng(10);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 350; ++i) {
    rects.push_back(RandomRect(rng));
    tree.Insert(rects.back(), i);
  }
  // Some deletions so the file contains free pages.
  for (uint64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(tree.Delete(rects[i], i));
  }
  PageFile file(5);
  ASSERT_TRUE(tree.PackToPageFile(&file).ok());
  EXPECT_EQ(file.num_pages(), tree.num_pages());

  auto loaded = RStarTree::LoadFromPageFile(file, SmallOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(ValidateRTree(*loaded).ok());
  EXPECT_EQ(loaded->num_data_entries(), tree.num_data_entries());
  EXPECT_EQ(loaded->height(), tree.height());
  EXPECT_EQ(loaded->root_page(), tree.root_page());
  // Page for page the same tree, free pages included.
  EXPECT_EQ(TreeFingerprint(*loaded), TreeFingerprint(tree));
  // Same query answers.
  for (int q = 0; q < 20; ++q) {
    const Rect window = RandomRect(rng, 0.3);
    auto a = tree.WindowQuery(window);
    auto b = loaded->WindowQuery(window);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

TEST(RStarTreeTest, PackRequiresEmptyFile) {
  RStarTree tree(1, SmallOptions());
  tree.Insert(Rect(0, 0, 1, 1), 0);
  PageFile file(1);
  file.AllocatePage();
  EXPECT_TRUE(tree.PackToPageFile(&file).IsInvalidArgument())
      << "non-empty file must be rejected";
}

TEST(RStarTreeTest, LoadRejectsGarbage) {
  PageFile file(1);
  file.AllocatePage();  // Zeroed metadata page: bad magic.
  EXPECT_TRUE(RStarTree::LoadFromPageFile(file).status().IsCorruption());
  EXPECT_TRUE(
      RStarTree::LoadFromPageFile(PageFile(1)).status().IsInvalidArgument());
}

TEST(RStarTreeTest, PaperFanoutsYieldTable1LikeShape) {
  // With default (paper) fanouts, ~13k uniform entries give height 2-3 and
  // data-page occupancy around 70%.
  RStarTree tree(1);
  Rng rng(11);
  for (uint64_t i = 0; i < 13'000; ++i) {
    tree.Insert(RandomRect(rng, 0.01), i);
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  const auto stats = tree.ComputeShapeStats();
  EXPECT_GE(stats.height, 2);
  EXPECT_LE(stats.height, 3);
  EXPECT_GT(stats.avg_data_fill, 0.6);
  const double avg_entries_per_leaf =
      static_cast<double>(stats.num_data_entries) /
      static_cast<double>(stats.num_data_pages);
  EXPECT_GT(avg_entries_per_leaf, 15.0);
  EXPECT_LE(avg_entries_per_leaf, 26.0);
}

TEST(RStarTreeKnnTest, MatchesLinearScan) {
  RStarTree tree(1, SmallOptions());
  Rng rng(30);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 600; ++i) {
    rects.push_back(RandomRect(rng, 0.02));
    tree.Insert(rects.back(), i);
  }
  for (int q = 0; q < 20; ++q) {
    const Point query{rng.NextDouble(), rng.NextDouble()};
    // Reference: sort all entries by (mindist, id).
    std::vector<std::pair<double, uint64_t>> reference;
    for (uint64_t i = 0; i < rects.size(); ++i) {
      reference.emplace_back(std::sqrt(MinDistSq(query, rects[i])), i);
    }
    std::sort(reference.begin(), reference.end());
    const auto neighbors = tree.KnnQuery(query, 10);
    ASSERT_EQ(neighbors.size(), 10u);
    for (size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_NEAR(neighbors[k].distance, reference[k].first, 1e-12)
          << "query " << q << " rank " << k;
    }
    // Distances ascending.
    for (size_t k = 1; k < neighbors.size(); ++k) {
      EXPECT_GE(neighbors[k].distance, neighbors[k - 1].distance);
    }
  }
}

TEST(RStarTreeKnnTest, EdgeCases) {
  RStarTree tree(1, SmallOptions());
  EXPECT_TRUE(tree.KnnQuery(Point{0.5, 0.5}, 5).empty());  // Empty tree.
  tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 7);
  EXPECT_TRUE(tree.KnnQuery(Point{0.5, 0.5}, 0).empty());  // k = 0.
  const auto one = tree.KnnQuery(Point{0.15, 0.15}, 3);
  ASSERT_EQ(one.size(), 1u);  // Fewer entries than k.
  EXPECT_EQ(one[0].object_id, 7u);
  EXPECT_DOUBLE_EQ(one[0].distance, 0.0);  // Query inside the MBR.
}

TEST(RStarTreeKnnTest, KEqualsTreeSizeReturnsAll) {
  RStarTree tree(1, SmallOptions());
  Rng rng(31);
  for (uint64_t i = 0; i < 100; ++i) {
    tree.Insert(RandomRect(rng), i);
  }
  const auto all = tree.KnnQuery(Point{0.5, 0.5}, 100);
  EXPECT_EQ(all.size(), 100u);
  std::set<uint64_t> ids;
  for (const auto& neighbor : all) {
    ids.insert(neighbor.object_id);
  }
  EXPECT_EQ(ids.size(), 100u);
}

TEST(RStarTreeKnnTest, PaperFanoutLargeTreeMatchesLinearScan) {
  // Same property as MatchesLinearScan, but on a multi-level tree with the
  // paper's real fanouts (102/26), where best-first pruning actually
  // skips subtrees.
  RStarTree tree(1);
  Rng rng(32);
  std::vector<Rect> rects;
  for (uint64_t i = 0; i < 3'000; ++i) {
    rects.push_back(RandomRect(rng, 0.01));
    tree.Insert(rects.back(), i);
  }
  ASSERT_GE(tree.height(), 2);
  for (int q = 0; q < 10; ++q) {
    const Point query{rng.NextDouble(), rng.NextDouble()};
    std::vector<double> reference;
    for (const Rect& r : rects) {
      reference.push_back(std::sqrt(MinDistSq(query, r)));
    }
    std::sort(reference.begin(), reference.end());
    const auto neighbors = tree.KnnQuery(query, 25);
    ASSERT_EQ(neighbors.size(), 25u);
    std::set<uint64_t> unique_ids;
    for (size_t k = 0; k < neighbors.size(); ++k) {
      EXPECT_NEAR(neighbors[k].distance, reference[k], 1e-12)
          << "query " << q << " rank " << k;
      unique_ids.insert(neighbors[k].object_id);
    }
    EXPECT_EQ(unique_ids.size(), neighbors.size());
  }
}

TEST(MinDistSqTest, InsideOnBoundaryOutside) {
  const Rect box(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{1, 1}, box), 0.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{2, 1}, box), 0.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{3, 1}, box), 1.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{3, 3}, box), 2.0);
  EXPECT_DOUBLE_EQ(MinDistSq(Point{-1, -2}, box), 5.0);
}

class RStarTreeValiditySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarTreeValiditySweep, RandomWorkloadStaysValid) {
  RStarTree tree(1, SmallOptions());
  Rng rng(GetParam());
  std::vector<std::pair<Rect, uint64_t>> live;
  uint64_t next_id = 0;
  for (int step = 0; step < 600; ++step) {
    if (live.empty() || rng.NextBool(0.7)) {
      const Rect r = RandomRect(rng, rng.NextBool(0.5) ? 0.002 : 0.2);
      tree.Insert(r, next_id);
      live.emplace_back(r, next_id++);
    } else {
      const size_t pick = rng.NextBelow(live.size());
      ASSERT_TRUE(tree.Delete(live[pick].first, live[pick].second));
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), static_cast<int64_t>(live.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarTreeValiditySweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---- The exact leaf-parent chooser against the direct definition ----

// R* CS2 exactly as insertion computed it before the exact chooser: for
// each candidate, both overlap sums over all n-1 siblings in ascending
// order, then a fold over the candidates in index order. Kept here only as
// the reference ChooseLeastOverlapEnlargement must reproduce.
size_t ReferenceChooseLeastOverlap(const std::vector<RTreeEntry>& entries,
                                   const Rect& rect) {
  size_t best = 0;
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_area_delta = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    const Rect& candidate = entries[i].rect;
    const Rect enlarged = candidate.UnionWith(rect);
    double overlap_before = 0.0;
    double overlap_after = 0.0;
    for (size_t j = 0; j < entries.size(); ++j) {
      if (j == i) continue;
      overlap_before += candidate.IntersectionArea(entries[j].rect);
      overlap_after += enlarged.IntersectionArea(entries[j].rect);
    }
    const double overlap_delta = overlap_after - overlap_before;
    const double area_delta = candidate.Enlargement(rect);
    const double area = candidate.Area();
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)))) {
      best = i;
      best_overlap_delta = overlap_delta;
      best_area_delta = area_delta;
      best_area = area;
    }
  }
  return best;
}

std::vector<RTreeEntry> EntriesOf(const std::vector<Rect>& rects) {
  std::vector<RTreeEntry> entries;
  for (size_t i = 0; i < rects.size(); ++i) {
    entries.push_back(RTreeEntry{rects[i], 100 + i});
  }
  return entries;
}

void ExpectSameChoice(const std::vector<Rect>& rects, const Rect& rect) {
  const std::vector<RTreeEntry> entries = EntriesOf(rects);
  ASSERT_EQ(ChooseLeastOverlapEnlargement(entries, rect),
            ReferenceChooseLeastOverlap(entries, rect))
      << "n=" << rects.size() << " rect=" << rect;
}

// Adversarial leaf-parent nodes: half the coordinates snapped to a coarse
// grid (shared edges, duplicate keys), zero-area segments and points,
// exact duplicates and nested rects; all scaled by `scale` and shifted by
// `offset`.
std::vector<Rect> AdversarialNode(Rng& rng, size_t n, double scale,
                                  double offset) {
  const auto coord = [&] {
    const double v = rng.NextDoubleInRange(0.0, 1.0);
    return rng.NextBool(0.5) ? std::round(v * 8.0) / 8.0 : v;
  };
  std::vector<Rect> rects;
  for (size_t i = 0; i < n; ++i) {
    if (!rects.empty() && rng.NextBool(0.1)) {
      rects.push_back(rects[rng.NextBelow(rects.size())]);  // Duplicate.
      continue;
    }
    if (!rects.empty() && rng.NextBool(0.1)) {
      const Rect& outer = rects[rng.NextBelow(rects.size())];  // Nested.
      const double fx = rng.NextDoubleInRange(0.0, 0.5);
      const double fy = rng.NextDoubleInRange(0.0, 0.5);
      rects.emplace_back(outer.xl + fx * outer.Width(),
                         outer.yl + fy * outer.Height(),
                         outer.xu - fx * outer.Width(),
                         outer.yu - fy * outer.Height());
      continue;
    }
    const double x = coord();
    const double y = coord();
    const double extent = rng.NextBool(0.3) ? 0.5 : 0.15;
    double w = rng.NextDoubleInRange(0.0, extent);
    double h = rng.NextDoubleInRange(0.0, extent);
    const double shape = rng.NextDoubleInRange(0.0, 1.0);
    if (shape < 0.1) w = 0.0;                  // Vertical segment.
    if (shape > 0.9) h = 0.0;                  // Horizontal segment.
    if (shape > 0.45 && shape < 0.5) w = h = 0.0;  // Point.
    rects.emplace_back(offset + scale * x, offset + scale * y,
                       offset + scale * (x + w), offset + scale * (y + h));
  }
  return rects;
}

Rect AdversarialInsert(Rng& rng, const std::vector<Rect>& node, double scale,
                       double offset) {
  const double pick = rng.NextDoubleInRange(0.0, 1.0);
  const Rect& some = node[rng.NextBelow(node.size())];
  if (pick < 0.3) {  // Inside an existing candidate (often several).
    const double fx = rng.NextDoubleInRange(0.0, 0.5);
    const double fy = rng.NextDoubleInRange(0.0, 0.5);
    return Rect(some.xl + fx * some.Width(), some.yl + fy * some.Height(),
                some.xu - fx * some.Width(), some.yu - fy * some.Height());
  }
  if (pick < 0.4) return some;  // An exact duplicate of a candidate.
  if (pick < 0.5) {             // A point, possibly on a shared edge.
    const double x = offset + scale * std::round(rng.NextDouble() * 8) / 8;
    return Rect(x, some.yl, x, some.yl);
  }
  const double x = rng.NextDoubleInRange(-0.1, 1.0);
  const double y = rng.NextDoubleInRange(-0.1, 1.0);
  return Rect(offset + scale * x, offset + scale * y,
              offset + scale * (x + rng.NextDoubleInRange(0.0, 0.2)),
              offset + scale * (y + rng.NextDoubleInRange(0.0, 0.2)));
}

TEST(ChooseSubtreeTest, MatchesDirectDefinitionOnAdversarialNodes) {
  Rng rng(1996);
  // Unit scale; a large offset (rounded sums); tiny scale (underflowing
  // areas); areas near the overflow threshold; and 1e160, where areas
  // overflow to infinity and the enlargement keys turn NaN.
  const std::pair<double, double> kFrames[] = {
      {1.0, 0.0}, {1e-3, 1e6}, {1e-160, 0.0}, {1e153, 0.0}, {1e160, 0.0}};
  for (const auto& [scale, offset] : kFrames) {
    for (size_t n = 2; n <= kMaxDirEntries; ++n) {
      for (int round = 0; round < 6; ++round) {
        const std::vector<Rect> node = AdversarialNode(rng, n, scale, offset);
        ExpectSameChoice(node, AdversarialInsert(rng, node, scale, offset));
      }
    }
  }
}

TEST(ChooseSubtreeTest, EdgeTouchingTilesHaveNoOverlap) {
  // A 10x10 tiling of unit squares touches only along edges: every
  // intersection area is exactly 0, whatever the scan reports.
  std::vector<Rect> tiles;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) tiles.emplace_back(i, j, i + 1, j + 1);
  }
  for (const Rect& rect : {Rect(3, 3, 3, 3), Rect(2.5, 2.5, 3.5, 3.5),
                           Rect(4, 0, 4, 10), Rect(-1, -1, 0, 0),
                           Rect(9.5, 9.5, 11, 11), Rect(0, 0, 10, 10)}) {
    ExpectSameChoice(tiles, rect);
  }
}

TEST(ChooseSubtreeTest, NestedCandidatesPickTheSmallestContainer) {
  std::vector<Rect> nested;
  for (int k = 10; k >= 1; --k) nested.emplace_back(-k, -k, k, k);
  const Rect inside(-0.5, -0.5, 0.5, 0.5);
  ExpectSameChoice(nested, inside);
  EXPECT_EQ(ChooseLeastOverlapEnlargement(EntriesOf(nested), inside), 9u);
  ExpectSameChoice(nested, Rect(0.5, 0.5, 1.5, 1.5));
  ExpectSameChoice(nested, Rect(11, 11, 12, 12));
}

TEST(ChooseSubtreeTest, FullTiesFallToTheLowestIndex) {
  // Identical candidates: every key ties and index 0 wins, with and
  // without the rect inside them.
  const std::vector<Rect> copies(7, Rect(0, 0, 2, 2));
  EXPECT_EQ(ChooseLeastOverlapEnlargement(EntriesOf(copies), Rect(1, 1, 1, 1)),
            0u);
  ExpectSameChoice(copies, Rect(1, 1, 1, 1));
  ExpectSameChoice(copies, Rect(3, 3, 4, 4));
  // Mirror-image candidates around the rect: equal area enlargement, area
  // and overlap enlargement, so the index decides.
  const std::vector<Rect> mirrored = {Rect(2, 0, 3, 1), Rect(-3, 0, -2, 1),
                                      Rect(0, 2, 1, 3), Rect(0, -3, 1, -2),
                                      Rect(10, 10, 11, 11)};
  ExpectSameChoice(mirrored, Rect(0, 0, 1, 1));
  // Zero-area candidates on one line: area enlargement and area tie at 0.
  const std::vector<Rect> segments = {Rect(0, 0, 1, 0), Rect(1, 0, 2, 0),
                                      Rect(2, 0, 3, 0), Rect(0, 0, 3, 0)};
  ExpectSameChoice(segments, Rect(0.5, 0, 0.5, 0));
  ExpectSameChoice(segments, Rect(4, 0, 5, 0));
  ExpectSameChoice(segments, Rect(1, 1, 1, 1));
}

TEST(ChooseSubtreeTest, OverflowingKeysMatchTheDirectDefinition) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Finite areas whose overlap sums overflow: a hundred copies of a
  // 1e307-area square, so each copy's two sums reach infinity and its
  // overlap enlargement is NaN, beside one disjoint square.
  const double side = 3e153;
  std::vector<Rect> big(100, Rect(0, 0, side, side));
  big.push_back(Rect(2 * side, 0, 3 * side, side));
  ExpectSameChoice(big, Rect(side / 2, side / 2, side / 2, side / 2));
  ExpectSameChoice(big, Rect(2.5 * side, 0, 2.5 * side, 0));
  // Infinite coordinates: the whole plane, half-planes, and a point at
  // infinity (NaN width), next to ordinary rects.
  const std::vector<Rect> infinite = {
      Rect(0, 0, 1, 1), Rect(-kInf, -kInf, kInf, kInf), Rect(0, 0, kInf, 1),
      Rect(kInf, kInf, kInf, kInf), Rect(-1, -1, 0, 0), Rect(0.5, 0, 2, 1)};
  for (const Rect& rect :
       {Rect(0.2, 0.2, 0.3, 0.3), Rect(-kInf, -kInf, kInf, kInf),
        Rect(5, 5, 5, 5), Rect(-kInf, 0, 0, 0)}) {
    ExpectSameChoice(infinite, rect);
  }
}

// Every golden figure and exact benchmark count depends on the pages of
// the insertion-built paper trees. The constants were recorded before the
// level-1 ChooseSubtree rewrite; a faster insertion path must keep them.
TEST(RStarTreeFingerprintTest, PaperMapsAtScale005KeepTheirPages) {
  const PaperWorkload workload(PaperWorkloadSpec().Scaled(0.05));
  EXPECT_EQ(TreeFingerprint(workload.tree_r()), 0x91d186b7211e263eULL);
  EXPECT_EQ(TreeFingerprint(workload.tree_s()), 0xb3c1182432545140ULL);
}

}  // namespace
}  // namespace psj
