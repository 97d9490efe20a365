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

// Builds a one-node cache image the way NodeSoACache would, via a batch.
NodeSoAView ViewOf(const RectBatch& batch, const std::vector<uint64_t>& ids,
                   const RTreeNode& node) {
  return NodeSoAView{batch.view(), ids.data(), node.ComputeMbr()};
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

// MatchNodeEntriesSoA must be bit-identical to MatchNodeEntries — same
// pairs, same order, same counts — across sweep/nested-loop and with the
// restriction on and off.
TEST(NodeSoAMatchTest, MatchesAosPathOnFuzzedNodes) {
  Rng rng(77);
  const size_t kSizes[] = {0, 1, 26, 102};
  for (const size_t nr : kSizes) {
    for (const size_t ns : kSizes) {
      for (int round = 0; round < 12; ++round) {
        const auto rects_r = FuzzRects(rng, nr, 0.3);
        const auto rects_s = FuzzRects(rng, ns, 0.3);
        const RTreeNode node_r = MakeNode(rects_r, 0);
        const RTreeNode node_s = MakeNode(rects_s, 0);
        RectBatch batch_r;
        RectBatch batch_s;
        batch_r.Assign(rects_r);
        batch_s.Assign(rects_s);
        std::vector<uint64_t> ids_r(rects_r.size() + 1, 0);
        std::vector<uint64_t> ids_s(rects_s.size() + 1, 0);
        const NodeSoAView view_r = ViewOf(batch_r, ids_r, node_r);
        const NodeSoAView view_s = ViewOf(batch_s, ids_s, node_s);
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
            EXPECT_EQ(got, expected);
            EXPECT_EQ(counts_soa.entries_considered_r,
                      counts_aos.entries_considered_r);
            EXPECT_EQ(counts_soa.entries_considered_s,
                      counts_aos.entries_considered_s);
            EXPECT_EQ(counts_soa.pairs_tested, counts_aos.pairs_tested);
          }
        }
      }
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
