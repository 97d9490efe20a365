#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "join/node_match.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"
#include "rtree/rstar_tree.h"
#include "util/rng.h"

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

// A cache holding `nodes` on pages 1, 2, ... (page 0 is the metadata page,
// never a node), built as RStarTree::Seal() builds it.
NodeSoACache CacheOf(const std::vector<RTreeNode>& nodes) {
  std::vector<RTreeNode> pages(1);
  pages.insert(pages.end(), nodes.begin(), nodes.end());
  std::vector<bool> is_free(pages.size(), false);
  is_free[0] = true;
  NodeSoACache cache;
  cache.Build(pages, is_free);
  return cache;
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
// be bit-identical to MatchNodeEntries on the nodes — same pairs, same
// order, same counts — across sweep/nested-loop and with the restriction
// on and off.
void ExpectSoAMatchesAos(const NodeSoAView& view_r, const NodeSoAView& view_s,
                         const RTreeNode& node_r, const RTreeNode& node_s) {
  ExpectXOrder(view_r);
  ExpectXOrder(view_s);
  for (const bool restrict_space : {true, false}) {
    for (const bool sweep : {true, false}) {
      NodeMatchOptions options;
      options.use_search_space_restriction = restrict_space;
      options.use_plane_sweep = sweep;
      NodeMatchCounts counts_aos;
      NodeMatchCounts counts_soa;
      const Pairs expected =
          MatchNodeEntries(node_r, node_s, options, &counts_aos);
      const Pairs got =
          MatchNodeEntriesSoA(view_r, view_s, options, &counts_soa);
      EXPECT_EQ(got, expected)
          << "restrict=" << restrict_space << " sweep=" << sweep;
      EXPECT_EQ(counts_soa.entries_considered_r,
                counts_aos.entries_considered_r);
      EXPECT_EQ(counts_soa.entries_considered_s,
                counts_aos.entries_considered_s);
      EXPECT_EQ(counts_soa.pairs_tested, counts_aos.pairs_tested);
    }
  }
}

void ExpectSoAMatchesAos(const RTreeNode& node_r, const RTreeNode& node_s) {
  const NodeSoACache cache = CacheOf({node_r, node_s});
  ExpectSoAMatchesAos(cache.view(1), cache.view(2), node_r, node_s);
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

TEST(NodeSoAMatchTest, MatchesAosPathOnFuzzedNodes) {
  Rng rng(77);
  const size_t kSizes[] = {0, 1, 26, 102};
  for (const size_t nr : kSizes) {
    for (const size_t ns : kSizes) {
      for (int round = 0; round < 12; ++round) {
        ExpectSoAMatchesAos(MakeNode(FuzzRects(rng, nr, 0.3), 0),
                            MakeNode(FuzzRects(rng, ns, 0.3), 0));
      }
    }
  }
}

// Nodes whose sweep order rests on ties and non-finite keys: all-equal
// xl, duplicate rects, -0.0 beside +0.0, and infinite coordinates.
TEST(NodeSoAMatchTest, MatchesAosPathOnTiedAndInfiniteKeys) {
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
      ExpectSoAMatchesAos(MakeNode(rects_r, 0), MakeNode(rects_s, 0));
    }
  }
}

// The tree-level cache: views must reproduce each node's entries, MBR
// (bitwise) and padding contract, and MatchNodePages must agree with the
// AoS path on a sealed tree.
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

TEST(NodeSoACacheTest, MatchNodePagesAgreesWithAosOnSealedTrees) {
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
  NodeMatchCounts counts_pages;
  NodeMatchCounts counts_nodes;
  const Pairs via_pages =
      MatchNodePages(tree_r, tree_r.root_page(), tree_s, tree_s.root_page(),
                     NodeMatchOptions(), &counts_pages);
  const Pairs via_nodes =
      MatchNodeEntries(tree_r.node(tree_r.root_page()),
                       tree_s.node(tree_s.root_page()), NodeMatchOptions(),
                       &counts_nodes);
  EXPECT_EQ(via_pages, via_nodes);
  EXPECT_EQ(counts_pages.pairs_tested, counts_nodes.pairs_tested);
  EXPECT_EQ(counts_pages.entries_considered_r,
            counts_nodes.entries_considered_r);
  EXPECT_EQ(counts_pages.entries_considered_s,
            counts_nodes.entries_considered_s);
}

// Bulk and page-file loads do not validate rects, so a sealed node can hold
// NaN coordinates: Insert rejects them, but FromNodes — the assembly step
// of LoadFromPageFile and the STR loader — takes them as given and seals.
// Sealing must order them without tripping std::sort, and the x-order path
// must still match the AoS path: a NaN entry never passes the restriction.
TEST(NodeSoACacheTest, NaNCoordinatesSealAndMatchLikeAos) {
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
  ASSERT_NE(leaf, 0u);
  // SortedOrderByXl sorts the leaf by insertion and the root, past 32
  // entries, with std::sort: poison both.
  const uint32_t root = built.root_page();
  ASSERT_GT(nodes[root].size(), 32u);
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
  const RStarTree tree = RStarTree::FromNodes(
      1, std::move(nodes), root, built.height(), built.num_data_entries(),
      free_pages, RTreeOptions());
  const NodeSoACache* cache = tree.soa();
  ASSERT_NE(cache, nullptr);
  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (tree.IsFreePage(p)) continue;
    for (const uint32_t q : {leaf, root, p}) {
      SCOPED_TRACE(testing::Message() << "pages " << p << ", " << q);
      ExpectSoAMatchesAos(cache->view(p), cache->view(q), tree.node(p),
                          tree.node(q));
    }
  }
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

TEST(NodeSoACacheDeathTest, FanOutAbove256IsRejected) {
  RTreeOptions wide_dir;
  wide_dir.max_dir_entries = NodeSoACache::kMaxEntries + 1;
  EXPECT_DEATH(RStarTree(1, wide_dir), "max_dir_entries.*kMaxEntries");
  RTreeOptions wide_data;
  wide_data.max_data_entries = NodeSoACache::kMaxEntries + 1;
  EXPECT_DEATH(RStarTree(1, wide_data), "max_data_entries.*kMaxEntries");
}

// Arena storage: sealing with the arena on must not change any query, and
// copy-on-write must kick in on mutation.
TEST(EntryArenaTest, SealedArenaTreeAnswersQueriesIdentically) {
  Rng rng(5);
  RTreeOptions arena_on;
  RTreeOptions arena_off;
  arena_off.arena_entry_storage = false;
  RStarTree tree_a(1, arena_on);
  RStarTree tree_b(1, arena_off);
  const auto rects = FuzzRects(rng, 500, 0.05);
  for (size_t i = 0; i < rects.size(); ++i) {
    tree_a.Insert(rects[i], i);
    tree_b.Insert(rects[i], i);
  }
  tree_a.Seal();
  tree_b.Seal();
  EXPECT_TRUE(tree_a.node(tree_a.root_page()).entries.borrowed());
  EXPECT_FALSE(tree_b.node(tree_b.root_page()).entries.borrowed());
  for (int round = 0; round < 20; ++round) {
    const auto window = FuzzRects(rng, 1, 0.4)[0];
    EXPECT_EQ(tree_a.WindowQuery(window), tree_b.WindowQuery(window));
  }
  // Mutating a sealed arena tree — after the tree-level Thaw() required by
  // the phase contract — thaws the touched nodes (copy-on-write) and keeps
  // the structure consistent.
  tree_a.Thaw();
  tree_b.Thaw();
  for (size_t i = 0; i < 50; ++i) {
    tree_a.Insert(rects[i], 10'000 + i);
    tree_b.Insert(rects[i], 10'000 + i);
  }
  for (size_t i = 100; i < 120; ++i) {
    EXPECT_EQ(tree_a.Delete(rects[i], i), tree_b.Delete(rects[i], i));
  }
  for (int round = 0; round < 20; ++round) {
    const auto window = FuzzRects(rng, 1, 0.4)[0];
    auto got_a = tree_a.WindowQuery(window);
    auto got_b = tree_b.WindowQuery(window);
    std::sort(got_a.begin(), got_a.end());
    std::sort(got_b.begin(), got_b.end());
    EXPECT_EQ(got_a, got_b);
  }
}

}  // namespace
}  // namespace psj
