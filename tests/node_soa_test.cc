#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "core/task_builder.h"
#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "join/node_match.h"
#include "join/sequential_join.h"
#include "native/native_join.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"
#include "rtree/rstar_tree.h"
#include "util/rng.h"
#include "node_match_oracle.h"

namespace psj {
namespace {

using Pairs = std::vector<std::pair<uint32_t, uint32_t>>;

// Random node-sized rect sets with nasty shapes: grid-snapped coordinates
// (shared edges/corners, duplicate xl keys) and a fraction of zero-extent
// degenerates, as in the rect_batch fuzz suite.
std::vector<Rect> FuzzRects(Rng& rng, size_t count, double max_extent) {
  std::vector<Rect> rects;
  rects.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto snap = [&](double v) {
      return rng.NextDoubleInRange(0.0, 1.0) < 0.5
                 ? std::round(v * 20.0) / 20.0
                 : v;
    };
    const double x = snap(rng.NextDoubleInRange(0.0, 1.0));
    const double y = snap(rng.NextDoubleInRange(0.0, 1.0));
    double w = snap(rng.NextDoubleInRange(0.0, max_extent));
    double h = snap(rng.NextDoubleInRange(0.0, max_extent));
    const double degenerate = rng.NextDoubleInRange(0.0, 1.0);
    if (degenerate < 0.15) w = 0.0;
    if (degenerate > 0.85) h = 0.0;
    rects.emplace_back(x, y, x + w, y + h);
  }
  return rects;
}

RTreeNode MakeNode(const std::vector<Rect>& rects, int16_t level) {
  RTreeNode node;
  node.level = level;
  for (size_t i = 0; i < rects.size(); ++i) {
    node.entries.push_back(RTreeEntry{rects[i], 1000 + i});
  }
  return node;
}

// The view's x-order must be a permutation of 0..size-1 listing the
// entries by ascending xl, NaN keys last, ties (-0.0 and +0.0 among them)
// by index.
void ExpectXOrder(const NodeSoAView& v) {
  ASSERT_TRUE(v.size() == 0 || v.x_order != nullptr);
  std::vector<bool> seen(v.size(), false);
  for (size_t k = 0; k < v.size(); ++k) {
    const size_t i = v.x_order[k];
    ASSERT_LT(i, v.size());
    EXPECT_FALSE(seen[i]) << "index " << i << " listed twice";
    seen[i] = true;
    if (k == 0) continue;
    const size_t prev = v.x_order[k - 1];
    const double a = v.rects.xl[prev];
    const double b = v.rects.xl[i];
    const bool in_order =
        std::isnan(a) ? std::isnan(b) && prev < i
                      : std::isnan(b) || a < b || (a == b && prev < i);
    EXPECT_TRUE(in_order) << "x_order[" << k - 1 << "] = " << prev << " (xl "
                          << a << ") before " << i << " (xl " << b << ")";
  }
}

// MatchNodeEntriesSoA over the cached views of `node_r` and `node_s` must
// equal the scalar oracle on the nodes — same pairs, same order, same
// counts — across sweep/nested-loop and with the restriction on and off.
void ExpectSoAMatchesOracle(const NodeSoAView& view_r,
                            const NodeSoAView& view_s,
                            const RTreeNode& node_r, const RTreeNode& node_s) {
  ExpectXOrder(view_r);
  ExpectXOrder(view_s);
  for (const bool restrict_space : {true, false}) {
    for (const bool sweep : {true, false}) {
      NodeMatchOptions options;
      options.use_search_space_restriction = restrict_space;
      options.use_plane_sweep = sweep;
      const ScalarMatch expected = ScalarNodeMatch(node_r, node_s, options);
      NodeMatchCounts counts;
      const Pairs got = MatchNodeEntriesSoA(view_r, view_s, options, &counts);
      EXPECT_EQ(got, expected.pairs)
          << "restrict=" << restrict_space << " sweep=" << sweep;
      EXPECT_EQ(counts.entries_considered_r,
                expected.counts.entries_considered_r);
      EXPECT_EQ(counts.entries_considered_s,
                expected.counts.entries_considered_s);
      EXPECT_EQ(counts.pairs_tested, expected.counts.pairs_tested);
    }
  }
}

void ExpectSoAMatchesOracle(const RTreeNode& node_r, const RTreeNode& node_s) {
  const NodeSoACache cache = CacheOf({node_r, node_s});
  ExpectSoAMatchesOracle(cache.view(1), cache.view(2), node_r, node_s);
}

std::vector<uint32_t> ScalarReference(const std::vector<Rect>& rects,
                                      const Rect& query) {
  std::vector<uint32_t> hits;
  for (size_t i = 0; i < rects.size(); ++i) {
    if (rects[i].Intersects(query)) hits.push_back(static_cast<uint32_t>(i));
  }
  return hits;
}

TEST(NodeScanTest, VariantsMatchScalarReferenceOnFuzzedNodes) {
  Rng rng(20240807);
  // Node fan-outs of interest: empty, single entry, tiny, data-node
  // capacity, directory capacity, and a past-capacity stress size.
  const size_t kSizes[] = {0, 1, 2, 7, 26, 102, 333};
  for (const size_t n : kSizes) {
    for (int round = 0; round < 40; ++round) {
      const auto rects = FuzzRects(rng, n, round % 2 == 0 ? 0.2 : 0.8);
      RectBatch batch;
      batch.Assign(rects);
      const RectSoAView view = batch.view();
      // Queries: fuzzed rects (including degenerate and exactly-touching
      // ones, since coordinates share the same snapped grid) plus one
      // guaranteed-touching query when the node is non-empty.
      std::vector<Rect> queries = FuzzRects(rng, 8, 0.5);
      // The whole plane is the one query the padding sentinels satisfy.
      constexpr double kInf = std::numeric_limits<double>::infinity();
      queries.emplace_back(-kInf, -kInf, kInf, kInf);
      if (!rects.empty()) {
        const Rect& r0 = rects[0];
        queries.emplace_back(r0.xu, r0.yu, r0.xu + 0.1, r0.yu + 0.1);
      }
      for (const Rect& query : queries) {
        const std::vector<uint32_t> expected = ScalarReference(rects, query);
        std::vector<uint32_t> got;
        ScanIntersecting(view, query, &got);
        EXPECT_EQ(got, expected);
        ScanIntersectingScalar(view, query, &got);
        EXPECT_EQ(got, expected);
        if (NodeScanHasSse2()) {
          ScanIntersectingSse2(view, query, &got);
          EXPECT_EQ(got, expected);
        }
        if (NodeScanHasAvx2()) {
          ScanIntersectingAvx2(view, query, &got);
          EXPECT_EQ(got, expected);
        }
      }
    }
  }
}

TEST(NodeScanTest, IsaNameIsConsistentWithCapabilities) {
  const std::string isa = NodeScanIsa();
  if (NodeScanHasAvx2()) {
    EXPECT_EQ(isa, "avx2");
  } else if (NodeScanHasSse2()) {
    EXPECT_EQ(isa, "sse2");
  } else {
    EXPECT_EQ(isa, "scalar");
  }
}

TEST(NodeSoAMatchTest, MatchesScalarOracleOnFuzzedNodes) {
  Rng rng(77);
  const size_t kSizes[] = {0, 1, 26, 102};
  for (const size_t nr : kSizes) {
    for (const size_t ns : kSizes) {
      for (int round = 0; round < 12; ++round) {
        ExpectSoAMatchesOracle(MakeNode(FuzzRects(rng, nr, 0.3), 0),
                               MakeNode(FuzzRects(rng, ns, 0.3), 0));
      }
    }
  }
}

// Nodes whose sweep order rests on ties and non-finite keys: all-equal
// xl, duplicate rects, -0.0 beside +0.0, and infinite coordinates.
TEST(NodeSoAMatchTest, MatchesScalarOracleOnTiedAndInfiniteKeys) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(78);
  std::vector<std::vector<Rect>> sets;
  for (const size_t n : {2, 17, 102}) {
    std::vector<Rect> same_xl = FuzzRects(rng, n, 0.3);
    for (Rect& r : same_xl) r.xl = 0.25;
    sets.push_back(same_xl);
    std::vector<Rect> duplicates;
    const std::vector<Rect> distinct = FuzzRects(rng, 3, 0.3);
    for (size_t i = 0; i < n; ++i) duplicates.push_back(distinct[i % 3]);
    sets.push_back(duplicates);
    std::vector<Rect> signed_zeros;
    for (size_t i = 0; i < n; ++i) {
      const double zero = i % 2 == 0 ? -0.0 : 0.0;
      const double y = static_cast<double>(i % 5) * 0.1;
      signed_zeros.emplace_back(zero, y, i % 3 == 0 ? -zero : 0.1 * (i % 4),
                                y + 0.2);
    }
    sets.push_back(signed_zeros);
    std::vector<Rect> infinite = FuzzRects(rng, n, 0.3);
    for (size_t i = 0; i < n; i += 3) {
      Rect& r = infinite[i];
      switch (i % 4) {
        case 0: r.xl = -kInf; break;
        case 1: r.xu = kInf; break;
        case 2: r = Rect(-kInf, -kInf, kInf, kInf); break;
        default: r.yl = -kInf; r.yu = kInf; break;
      }
    }
    sets.push_back(infinite);
  }
  for (const auto& rects_r : sets) {
    for (const auto& rects_s : sets) {
      ExpectSoAMatchesOracle(MakeNode(rects_r, 0), MakeNode(rects_s, 0));
    }
  }
}

// The tree-level cache: views must reproduce each node's entries, level,
// MBR (bitwise) and padding contract.
TEST(NodeSoACacheTest, SealedTreeViewsMatchNodes) {
  Rng rng(99);
  RStarTree tree(1);
  const auto rects = FuzzRects(rng, 400, 0.05);
  for (size_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  EXPECT_EQ(tree.soa(), nullptr);  // Not sealed yet.
  tree.Seal();
  const NodeSoACache* cache = tree.soa();
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(cache->num_pages(), tree.num_pages());
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (tree.IsFreePage(p)) continue;
    const RTreeNode& node = tree.node(p);
    const NodeSoAView v = cache->view(p);
    ASSERT_EQ(v.size(), node.entries.size());
    EXPECT_EQ(v.level, node.level);
    EXPECT_EQ(v.is_leaf(), node.is_leaf());
    EXPECT_GE(v.rects.padded, v.size() + RectBatch::kBlock);
    EXPECT_EQ(v.mbr, node.ComputeMbr());
    for (size_t i = 0; i < v.size(); ++i) {
      EXPECT_EQ(v.rects.rect(i), node.entries[i].rect);
      EXPECT_EQ(v.ids[i], node.entries[i].id);
    }
    // Sentinel tail: fails every intersection predicate.
    for (size_t i = v.size(); i < v.rects.padded; ++i) {
      EXPECT_FALSE(v.rects.rect(i).IsValid());
    }
    ExpectXOrder(v);
  }
  // A mutation (after Thaw(), per the phase contract) invalidates the
  // cache; re-sealing restores it.
  tree.Thaw();
  tree.Insert(Rect(0.5, 0.5, 0.6, 0.6), 7777);
  EXPECT_EQ(tree.soa(), nullptr);
  tree.Seal();
  EXPECT_NE(tree.soa(), nullptr);
}

TEST(NodeSoACacheTest, MatchNodePagesAgreesWithScalarOracle) {
  Rng rng(123);
  const auto build = [&](uint32_t id) {
    RStarTree tree(id);
    const auto rects = FuzzRects(rng, 300, 0.08);
    for (size_t i = 0; i < rects.size(); ++i) {
      tree.Insert(rects[i], i);
    }
    tree.Seal();
    return tree;
  };
  const RStarTree tree_r = build(1);
  const RStarTree tree_s = build(2);
  ASSERT_NE(tree_r.soa(), nullptr);
  ASSERT_NE(tree_s.soa(), nullptr);
  NodeMatchCounts counts;
  const Pairs via_pages =
      MatchNodePages(tree_r, tree_r.root_page(), tree_s, tree_s.root_page(),
                     NodeMatchOptions(), &counts);
  const ScalarMatch expected =
      ScalarNodeMatch(tree_r.node(tree_r.root_page()),
                      tree_s.node(tree_s.root_page()), NodeMatchOptions());
  EXPECT_FALSE(via_pages.empty());
  EXPECT_EQ(via_pages, expected.pairs);
  EXPECT_EQ(counts.pairs_tested, expected.counts.pairs_tested);
  EXPECT_EQ(counts.entries_considered_r,
            expected.counts.entries_considered_r);
  EXPECT_EQ(counts.entries_considered_s,
            expected.counts.entries_considered_s);
}

// Bulk and page-file loads do not validate rects, so a sealed node can hold
// NaN coordinates: Insert rejects them, but FromNodes — the assembly step
// of LoadFromPageFile and the STR loader — takes them as given and seals.
// This tree, of height 2, holds NaN coordinates in every other entry of its
// root and of its fullest leaf (`leaf`). SortedOrderByXl sorts the leaf by
// insertion and the root, past 32 entries, with std::sort, so both paths
// meet NaN keys.
struct NaNPoisonedTree {
  RStarTree tree;
  uint32_t leaf = 0;
};

NaNPoisonedTree BuildNaNPoisonedTree() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Rng rng(321);
  RStarTree built(1);
  const auto rects = FuzzRects(rng, 1500, 0.08);
  for (size_t i = 0; i < rects.size(); ++i) {
    built.Insert(rects[i], i);
  }
  std::vector<RTreeNode> nodes(built.num_pages());
  std::vector<uint32_t> free_pages;
  uint32_t leaf = 0;  // The fullest leaf.
  for (uint32_t p = 1; p < built.num_pages(); ++p) {
    if (built.IsFreePage(p)) {
      free_pages.push_back(p);
      continue;
    }
    nodes[p] = built.node(p);
    if (nodes[p].is_leaf() &&
        (leaf == 0 || nodes[p].size() > nodes[leaf].size())) {
      leaf = p;
    }
  }
  const uint32_t root = built.root_page();
  EXPECT_EQ(built.height(), 2);
  EXPECT_NE(leaf, 0u);
  EXPECT_GT(nodes[root].size(), 32u);
  for (const uint32_t page : {leaf, root}) {
    for (size_t i = 0; i < nodes[page].size(); i += 2) {
      Rect& r = nodes[page].entries[i].rect;
      switch (i % 8) {
        case 0: r = Rect(kNaN, kNaN, kNaN, kNaN); break;
        case 2: r.xl = kNaN; break;
        case 4: r.xu = kNaN; break;
        default: r.yl = kNaN; break;
      }
    }
  }
  return NaNPoisonedTree{
      RStarTree::FromNodes(1, std::move(nodes), root, built.height(),
                           built.num_data_entries(), free_pages,
                           RTreeOptions()),
      leaf};
}

// Sealing must order NaN keys without tripping std::sort, and the x-order
// path must still match the scalar oracle: a NaN entry never passes the
// restriction.
TEST(NodeSoACacheTest, NaNCoordinatesSealAndMatchTheOracle) {
  const NaNPoisonedTree poisoned = BuildNaNPoisonedTree();
  const RStarTree& tree = poisoned.tree;
  const NodeSoACache* cache = tree.soa();
  ASSERT_NE(cache, nullptr);
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (tree.IsFreePage(p)) continue;
    for (const uint32_t q : {poisoned.leaf, tree.root_page(), p}) {
      SCOPED_TRACE(testing::Message() << "pages " << p << ", " << q);
      ExpectSoAMatchesOracle(cache->view(p), cache->view(q), tree.node(p),
                             tree.node(q));
    }
  }
}

// The order ChildOrderByXl must give for distinct ids: NaN keys set apart
// first, so the (xl, id) comparison that sorts the rest never meets one.
std::vector<uint32_t> ReferenceChildOrder(const std::vector<RTreeEntry>& e) {
  std::vector<uint32_t> order(e.size());
  std::iota(order.begin(), order.end(), 0u);
  const auto nan_keys = std::stable_partition(
      order.begin(), order.end(),
      [&](uint32_t i) { return !std::isnan(e[i].rect.xl); });
  std::sort(order.begin(), nan_keys, [&](uint32_t a, uint32_t b) {
    if (e[a].rect.xl != e[b].rect.xl) return e[a].rect.xl < e[b].rect.xl;
    return e[a].id < e[b].id;
  });
  std::sort(nan_keys, order.end(),
            [&](uint32_t a, uint32_t b) { return e[a].id < e[b].id; });
  return order;
}

TEST(ChildOrderTest, MatchesReferenceOnTiesSignedZerosAndNaN) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Few distinct keys, so xl ties are common; -0.0 and +0.0 must tie.
  const double kKeys[] = {-kInf, -0.5, -0.0, 0.0, 0.25, 0.5, kInf, kNaN};
  Rng rng(4242);
  for (const size_t n : {0, 1, 2, 17, 33, 102}) {
    for (int round = 0; round < 30; ++round) {
      // A directory node: distinct child pages, in shuffled order.
      std::vector<uint64_t> pages(n);
      std::iota(pages.begin(), pages.end(), uint64_t{1});
      for (size_t i = n; i > 1; --i) {
        std::swap(pages[i - 1], pages[rng.NextBelow(i)]);
      }
      RTreeNode node;
      node.level = 1;
      for (size_t i = 0; i < n; ++i) {
        const double xl = kKeys[rng.NextBelow(std::size(kKeys))];
        node.entries.push_back(RTreeEntry{Rect(xl, 0.0, xl + 1.0, 1.0),
                                          pages[i]});
      }
      const NodeSoACache cache = CacheOf({node});
      EXPECT_EQ(ChildOrderByXl(cache.view(1)),
                ReferenceChildOrder(node.entries))
          << "n=" << n << " round=" << round;
    }
  }
}

// The joins' height alignment expands the deeper root in child order. With
// a NaN-poisoned root that order must stay well defined (the sanitize
// preset runs this), and both engines must reach exactly the leaves whose
// root entry meets the shallower tree's MBR.
TEST(ChildOrderTest, NaNRootedTreeJoinsAShallowerTreeLikeBruteForce) {
  const NaNPoisonedTree poisoned = BuildNaNPoisonedTree();
  const RStarTree& tree_r = poisoned.tree;
  RStarTree tree_s(2);
  Rng rng(654);
  const auto rects_s = FuzzRects(rng, 20, 0.3);
  for (size_t i = 0; i < rects_s.size(); ++i) {
    tree_s.Insert(rects_s[i], i);
  }
  tree_s.Seal();
  ASSERT_EQ(tree_r.height(), 2);
  ASSERT_EQ(tree_s.height(), 1);
  const RTreeNode& root_s = tree_s.node(tree_s.root_page());
  const Rect mbr_s = root_s.ComputeMbr();

  // Brute force over the tree's own directory MBRs.
  std::vector<uint32_t> expected_pages;
  std::vector<std::pair<uint64_t, uint64_t>> expected;
  for (const RTreeEntry& child : tree_r.node(tree_r.root_page()).entries) {
    if (!child.rect.Intersects(mbr_s)) continue;
    expected_pages.push_back(child.child_page());
    for (const RTreeEntry& r : tree_r.node(child.child_page()).entries) {
      for (const RTreeEntry& s : root_s.entries) {
        if (r.rect.Intersects(s.rect)) expected.emplace_back(r.id, s.id);
      }
    }
  }
  ASSERT_FALSE(expected.empty());
  std::sort(expected.begin(), expected.end());

  auto candidates = SequentialRTreeJoin(tree_r, tree_s).candidates;
  std::sort(candidates.begin(), candidates.end());
  EXPECT_EQ(candidates, expected);

  // One processor and factor 0: alignment only, one task per qualifying
  // child of the poisoned root, in child order.
  const JoinTaskSet tasks =
      BuildJoinTasks(tree_r, tree_s, 1, 0.0, NodeMatchOptions());
  std::vector<uint32_t> task_pages;
  for (const NodePair& task : tasks.tasks) {
    EXPECT_EQ(task.page_s, tree_s.root_page());
    EXPECT_EQ(task.level, 0);
    task_pages.push_back(task.page_r);
  }
  const NodeSoAView root_r = tree_r.sealed().view(tree_r.root_page());
  std::vector<uint32_t> in_child_order;
  for (const uint32_t k : ChildOrderByXl(root_r)) {
    if (root_r.rects.rect(k).Intersects(mbr_s)) {
      in_child_order.push_back(root_r.child_page(k));
    }
  }
  EXPECT_EQ(task_pages, in_child_order);
  std::sort(task_pages.begin(), task_pages.end());
  std::sort(expected_pages.begin(), expected_pages.end());
  EXPECT_EQ(task_pages, expected_pages);
}

// x-order indices are single bytes: 256 entries per node is the limit.
TEST(NodeSoACacheTest, FullFanOut256NodeGetsItsXOrder) {
  Rng rng(256);
  RTreeOptions options;
  options.max_dir_entries = NodeSoACache::kMaxEntries;
  options.max_data_entries = NodeSoACache::kMaxEntries;
  RStarTree tree(1, options);
  const auto rects = FuzzRects(rng, NodeSoACache::kMaxEntries, 0.1);
  for (size_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  tree.Seal();
  ASSERT_EQ(tree.height(), 1);
  const NodeSoAView v = tree.soa()->view(tree.root_page());
  ASSERT_EQ(v.size(), NodeSoACache::kMaxEntries);
  ExpectXOrder(v);
}

// Every query and join reads the sealed image through RStarTree::sealed(),
// which aborts on a tree that was never sealed or was mutated since.
TEST(NodeSoACacheDeathTest, UnsealedTreeReadersAbort) {
  RStarTree tree_r(1);
  RStarTree tree_s(2);
  tree_r.Insert(Rect(0.1, 0.1, 0.2, 0.2), 1);
  tree_s.Insert(Rect(0.1, 0.1, 0.2, 0.2), 2);
  const char* const kMessage = "is not sealed";
  EXPECT_DEATH(tree_r.WindowQuery(Rect(0, 0, 1, 1)), kMessage);
  EXPECT_DEATH(tree_r.KnnQuery(Point{0.5, 0.5}, 1), kMessage);
  EXPECT_DEATH(SequentialRTreeJoin(tree_r, tree_s), kMessage);
  EXPECT_DEATH(native::NativeRTreeJoin(tree_r, tree_s,
                                       native::NativeJoinConfig()),
               kMessage);
  EXPECT_DEATH(BuildJoinTasks(tree_r, tree_s, 1, 1.0, NodeMatchOptions()),
               kMessage);
  // One sealed side is not enough, and a mutation after Seal() unseals.
  tree_s.Seal();
  EXPECT_DEATH(SequentialRTreeJoin(tree_s, tree_r), kMessage);
  tree_s.Thaw();
  tree_s.Insert(Rect(0.3, 0.3, 0.4, 0.4), 3);
  EXPECT_DEATH(tree_s.WindowQuery(Rect(0, 0, 1, 1)), kMessage);
}

TEST(NodeSoACacheDeathTest, FanOutAbove256IsRejected) {
  RTreeOptions wide_dir;
  wide_dir.max_dir_entries = NodeSoACache::kMaxEntries + 1;
  EXPECT_DEATH(RStarTree(1, wide_dir), "max_dir_entries.*kMaxEntries");
  RTreeOptions wide_data;
  wide_data.max_data_entries = NodeSoACache::kMaxEntries + 1;
  EXPECT_DEATH(RStarTree(1, wide_data), "max_data_entries.*kMaxEntries");
}

}  // namespace
}  // namespace psj
