#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "geo/plane_sweep.h"
#include "geo/rect_batch.h"
#include "util/rng.h"

namespace psj {
namespace {

using Pair = std::pair<size_t, size_t>;

std::vector<Rect> RandomRects(Rng& rng, int count, double max_extent) {
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double x = rng.NextDoubleInRange(0.0, 1.0);
    const double y = rng.NextDoubleInRange(0.0, 1.0);
    rects.emplace_back(x, y, x + rng.NextDoubleInRange(0.0, max_extent),
                       y + rng.NextDoubleInRange(0.0, max_extent));
  }
  return rects;
}

// BatchSweepJoin, the partition join's sort-then-sweep entry point, over
// unsorted `r` and `s`; the pairs index the inputs, in local plane-sweep
// order.
std::vector<Pair> SortAndSweep(const std::vector<Rect>& r,
                               const std::vector<Rect>& s) {
  SweepScratch scratch;
  scratch.raw_r.Assign(r);
  scratch.raw_s.Assign(s);
  std::vector<Pair> pairs;
  BatchSweepJoin(scratch,
                 [&](size_t i, size_t j) { pairs.emplace_back(i, j); });
  return pairs;
}

std::set<Pair> CollectSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

TEST(SortedOrderTest, SortsByXlWithStableTies) {
  const std::vector<Rect> rects = {
      Rect(2, 0, 3, 1), Rect(1, 0, 2, 1), Rect(1, 5, 2, 6)};
  const auto order = SortedOrderByXl(rects);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);  // xl == 1, lower index first.
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 0u);
  EXPECT_FALSE(IsSortedByXl(rects));
  std::vector<Rect> sorted = {rects[1], rects[2], rects[0]};
  EXPECT_TRUE(IsSortedByXl(sorted));
}

TEST(PlaneSweepTest, SmallHandComputedExample) {
  // Figure 1-style setup: overlapping ranges along x.
  const std::vector<Rect> r = {Rect(0, 0, 2, 2), Rect(3, 0, 5, 2)};
  const std::vector<Rect> s = {Rect(1, 1, 4, 3), Rect(6, 0, 7, 1)};
  const std::vector<Pair> pairs = SortAndSweep(r, s);
  EXPECT_EQ(CollectSet(pairs), (std::set<Pair>{{0, 0}, {1, 0}}));
}

TEST(PlaneSweepTest, EmptyInputs) {
  const std::vector<Rect> r = {Rect(0, 0, 1, 1)};
  const std::vector<Rect> empty;
  EXPECT_TRUE(SortAndSweep(r, empty).empty());
  EXPECT_TRUE(SortAndSweep(empty, r).empty());
}

TEST(PlaneSweepTest, TouchingBoundariesCount) {
  const std::vector<Rect> r = {Rect(0, 0, 1, 1)};
  const std::vector<Rect> s = {Rect(1, 1, 2, 2)};  // Shares one corner.
  const std::vector<Pair> pairs = SortAndSweep(r, s);
  EXPECT_EQ(pairs.size(), 1u);
}

TEST(PlaneSweepTest, EmitsEachPairExactlyOnce) {
  Rng rng(77);
  const auto r = RandomRects(rng, 60, 0.3);
  const auto s = RandomRects(rng, 60, 0.3);
  const std::vector<Pair> pairs = SortAndSweep(r, s);
  const std::set<Pair> unique = CollectSet(pairs);
  EXPECT_EQ(unique.size(), pairs.size()) << "duplicate pair emitted";
}

// Property: plane sweep returns exactly the brute-force result on random
// inputs of varying density.
class PlaneSweepPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PlaneSweepPropertyTest, MatchesBruteForce) {
  const auto [count, extent] = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(count) +
          static_cast<uint64_t>(extent * 1e4));
  const auto r = RandomRects(rng, count, extent);
  const auto s = RandomRects(rng, count + 7, extent);

  const std::vector<Pair> sweep = SortAndSweep(r, s);
  std::vector<Pair> brute;
  BruteForceJoin(std::span<const Rect>(r), std::span<const Rect>(s),
                 [&](size_t i, size_t j) { brute.emplace_back(i, j); });
  EXPECT_EQ(CollectSet(sweep), CollectSet(brute));
  EXPECT_EQ(sweep.size(), brute.size());
}

INSTANTIATE_TEST_SUITE_P(
    Density, PlaneSweepPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 10, 50, 200),
                       ::testing::Values(0.01, 0.1, 0.5)));

TEST(PlaneSweepTest, SweepOrderIsMonotoneInX) {
  // In local plane-sweep order, the x position of emitted pairs (the
  // anchor's xl) never decreases.
  Rng rng(5);
  auto r = RandomRects(rng, 100, 0.2);
  auto s = RandomRects(rng, 100, 0.2);
  std::sort(r.begin(), r.end(),
            [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  std::sort(s.begin(), s.end(),
            [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  double last_anchor = -1.0;
  for (const auto& [i, j] : SortAndSweep(r, s)) {
    // The anchor is the rect with the smaller xl.
    const double anchor = std::min(r[i].xl, s[j].xl);
    EXPECT_GE(anchor, last_anchor - 1e-12);
    last_anchor = std::max(last_anchor, anchor);
  }
}

}  // namespace
}  // namespace psj
