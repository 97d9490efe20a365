#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>

#include "geo/plane_sweep.h"
#include "join/node_match.h"
#include "util/rng.h"
#include "node_match_oracle.h"

namespace psj {
namespace {

using Pair = std::pair<uint32_t, uint32_t>;

RTreeNode RandomNode(Rng& rng, int level, int entries, double extent,
                     double offset = 0.0) {
  RTreeNode node;
  node.level = static_cast<int16_t>(level);
  for (int i = 0; i < entries; ++i) {
    const double x = offset + rng.NextDoubleInRange(0.0, 1.0);
    const double y = rng.NextDoubleInRange(0.0, 1.0);
    node.entries.push_back(
        RTreeEntry{Rect(x, y, x + extent, y + extent),
                   static_cast<uint64_t>(i)});
  }
  return node;
}

std::set<Pair> AsSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

// Matches two standalone nodes through the sealed-image kernel: the nodes
// sit on pages 1 and 2 of a two-node cache.
std::vector<Pair> Match(const RTreeNode& a, const RTreeNode& b,
                        const NodeMatchOptions& options = NodeMatchOptions(),
                        NodeMatchCounts* counts = nullptr) {
  const NodeSoACache cache = CacheOf({a, b});
  return MatchNodeEntriesSoA(cache.view(1), cache.view(2), options, counts);
}

TEST(NodeMatchTest, AllFourModeCombinationsAgree) {
  Rng rng(1);
  const RTreeNode a = RandomNode(rng, 0, 26, 0.1);
  const RTreeNode b = RandomNode(rng, 0, 26, 0.1);
  std::set<Pair> reference;
  bool first = true;
  for (bool restriction : {false, true}) {
    for (bool sweep : {false, true}) {
      NodeMatchOptions options;
      options.use_search_space_restriction = restriction;
      options.use_plane_sweep = sweep;
      NodeMatchCounts counts;
      const auto got = Match(a, b, options, &counts);
      // Each mode equals the scalar oracle exactly: pairs, order, counts.
      const ScalarMatch expected = ScalarNodeMatch(a, b, options);
      EXPECT_EQ(got, expected.pairs);
      EXPECT_EQ(counts.entries_considered_r,
                expected.counts.entries_considered_r);
      EXPECT_EQ(counts.entries_considered_s,
                expected.counts.entries_considered_s);
      EXPECT_EQ(counts.pairs_tested, expected.counts.pairs_tested);
      const auto pairs = AsSet(got);
      if (first) {
        reference = pairs;
        first = false;
      } else {
        EXPECT_EQ(pairs, reference)
            << "restriction=" << restriction << " sweep=" << sweep;
      }
    }
  }
  EXPECT_FALSE(reference.empty());
}

TEST(NodeMatchTest, DisjointNodesShortCircuitUnderRestriction) {
  Rng rng(2);
  const RTreeNode a = RandomNode(rng, 0, 20, 0.05, 0.0);
  const RTreeNode b = RandomNode(rng, 0, 20, 0.05, 10.0);  // Far away.
  NodeMatchCounts counts;
  const auto pairs = Match(a, b, NodeMatchOptions(), &counts);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(counts.entries_considered_r, 0u);
  EXPECT_EQ(counts.entries_considered_s, 0u);
}

TEST(NodeMatchTest, RestrictionReducesConsideredEntries) {
  Rng rng(3);
  // Two nodes with a small overlap region on the right/left edges.
  const RTreeNode a = RandomNode(rng, 1, 60, 0.02, 0.0);   // x in [0, 1].
  const RTreeNode b = RandomNode(rng, 1, 60, 0.02, 0.9);   // x in [0.9, 1.9].
  NodeMatchOptions with;
  NodeMatchCounts counts_with;
  Match(a, b, with, &counts_with);
  NodeMatchOptions without;
  without.use_search_space_restriction = false;
  NodeMatchCounts counts_without;
  Match(a, b, without, &counts_without);
  EXPECT_LT(counts_with.entries_considered_r,
            counts_without.entries_considered_r);
  EXPECT_EQ(counts_without.entries_considered_r, 60u);
}

TEST(NodeMatchTest, EmptyNodesYieldNothing) {
  RTreeNode a;
  a.level = 0;
  RTreeNode b;
  b.level = 0;
  EXPECT_TRUE(Match(a, b).empty());
}

TEST(NodeMatchTest, SweepOutputIsInSweepOrder) {
  Rng rng(4);
  const RTreeNode a = RandomNode(rng, 0, 25, 0.2);
  const RTreeNode b = RandomNode(rng, 0, 25, 0.2);
  const auto pairs = Match(a, b);
  double last_anchor = -1e300;
  for (const auto& [i, j] : pairs) {
    // The sweep anchor of a pair is the rectangle with the smaller xl.
    const double anchor =
        std::min(a.entries[i].rect.xl, b.entries[j].rect.xl);
    EXPECT_GE(anchor, last_anchor - 1e-12);
    last_anchor = std::max(last_anchor, anchor);
  }
}

TEST(NodeMatchTest, SweepCountsExactYTests) {
  // pairs_tested in plane-sweep mode must be the exact number of y-extent
  // tests of the sweep's forward scans (it used to be approximated as
  // result + |r| + |s|), computed here by replaying the scalar sweep over
  // the restricted, sorted entry sets.
  Rng rng(6);
  const RTreeNode a = RandomNode(rng, 0, 40, 0.15);
  const RTreeNode b = RandomNode(rng, 0, 40, 0.15);
  for (bool restriction : {false, true}) {
    NodeMatchOptions options;
    options.use_search_space_restriction = restriction;
    NodeMatchCounts counts;
    Match(a, b, options, &counts);

    const Rect clip = a.ComputeMbr().Intersection(b.ComputeMbr());
    std::vector<Rect> rects_r;
    std::vector<Rect> rects_s;
    for (const RTreeEntry& e : a.entries) {
      if (!restriction || e.rect.Intersects(clip)) rects_r.push_back(e.rect);
    }
    for (const RTreeEntry& e : b.entries) {
      if (!restriction || e.rect.Intersects(clip)) rects_s.push_back(e.rect);
    }
    std::stable_sort(rects_r.begin(), rects_r.end(),
                     [](const Rect& x, const Rect& y) { return x.xl < y.xl; });
    std::stable_sort(rects_s.begin(), rects_s.end(),
                     [](const Rect& x, const Rect& y) { return x.xl < y.xl; });
    size_t expected_tests = 0;
    PlaneSweepJoinSortedScalar(std::span<const Rect>(rects_r),
                               std::span<const Rect>(rects_s),
                               [](size_t, size_t) {}, &expected_tests);
    EXPECT_EQ(counts.pairs_tested, expected_tests)
        << "restriction=" << restriction;
    EXPECT_GT(counts.pairs_tested, 0u);
  }
}

TEST(NodeMatchTest, NestedLoopCountsAllTests) {
  Rng rng(5);
  const RTreeNode a = RandomNode(rng, 0, 10, 0.3);
  const RTreeNode b = RandomNode(rng, 0, 12, 0.3);
  NodeMatchOptions options;
  options.use_plane_sweep = false;
  options.use_search_space_restriction = false;
  NodeMatchCounts counts;
  Match(a, b, options, &counts);
  EXPECT_EQ(counts.pairs_tested, 120u);
}

}  // namespace
}  // namespace psj
