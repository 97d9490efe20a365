#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <span>
#include <vector>

#include "geo/plane_sweep.h"
#include "geo/rect_batch.h"
#include "util/rng.h"

namespace psj {
namespace {

using Pair = std::pair<size_t, size_t>;

// Random rects with deliberately nasty shapes: coordinates snapped to a
// coarse grid (forcing shared edges/corners and duplicate xl keys) plus a
// healthy fraction of zero-width and/or zero-height degenerates.
std::vector<Rect> FuzzRects(Rng& rng, int count, double max_extent) {
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
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
    if (degenerate < 0.15) w = 0.0;  // Vertical segment MBR.
    if (degenerate > 0.85) h = 0.0;  // Horizontal segment MBR.
    rects.emplace_back(x, y, x + w, y + h);
  }
  return rects;
}

std::vector<Rect> SortByXl(std::vector<Rect> rects) {
  std::stable_sort(rects.begin(), rects.end(),
                   [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  return rects;
}

// SweepCollectPairs over the views of x-sorted `r` and `s`: fills `*pairs`
// and returns the y-test count.
size_t BatchSweep(const std::vector<Rect>& r, const std::vector<Rect>& s,
                  std::vector<Pair>* pairs) {
  RectBatch batch_r;
  RectBatch batch_s;
  batch_r.Assign(r);
  batch_s.Assign(s);
  std::vector<std::pair<uint32_t, uint32_t>> collected;
  const size_t tests =
      SweepCollectPairs(batch_r.view(), batch_s.view(), &collected);
  pairs->assign(collected.begin(), collected.end());
  return tests;
}

// BatchSweepJoin, the partition join's sort-then-sweep entry point, over
// unsorted `r` and `s`; the pairs index the inputs.
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

TEST(RectBatchTest, AssignRoundTripsAndPads) {
  Rng rng(10);
  const auto rects = FuzzRects(rng, 37, 0.2);
  RectBatch batch;
  batch.Assign(rects);
  ASSERT_EQ(batch.size(), rects.size());
  EXPECT_EQ(batch.padded_size(), (batch.size() / 4 + 1) * 4);
  for (size_t i = 0; i < rects.size(); ++i) {
    EXPECT_EQ(batch.rect(i), rects[i]);
  }
  // Sentinel lanes never intersect anything and terminate x-scans.
  for (size_t i = batch.size(); i < batch.padded_size(); ++i) {
    EXPECT_GT(batch.xl()[i], 1e300);
    EXPECT_LT(batch.yu()[i], -1e300);
  }
}

// Reloading rewrites only the sentinel lanes that held rectangles or are
// new; every load, growing or shrinking, must still leave a sentinel in
// every lane past size().
TEST(RectBatchTest, ReloadsKeepEveryLanePastSizeASentinel) {
  Rng rng(20);
  RectBatch batch;
  RectBatch gathered;
  for (const int count : {37, 5, 0, 70, 16, 33, 1, 100, 2, 47, 15, 64}) {
    const auto rects = FuzzRects(rng, count, 0.3);
    batch.Assign(rects);
    std::vector<uint32_t> every_other;
    for (uint32_t i = 0; i < rects.size(); i += 2) every_other.push_back(i);
    gathered.AssignGather(batch.view(), every_other);
    for (const RectBatch* b : {&batch, &gathered}) {
      const size_t stride = b == &batch ? 1 : 2;
      ASSERT_EQ(b->size(), (rects.size() + stride - 1) / stride);
      for (size_t i = 0; i < b->size(); ++i) {
        EXPECT_EQ(b->rect(i), rects[i * stride]) << "count=" << count;
      }
      for (size_t i = b->size(); i < b->padded_size(); ++i) {
        EXPECT_EQ(b->xl()[i], std::numeric_limits<double>::infinity());
        EXPECT_EQ(b->yl()[i], std::numeric_limits<double>::infinity());
        EXPECT_EQ(b->xu()[i], -std::numeric_limits<double>::infinity());
        EXPECT_EQ(b->yu()[i], -std::numeric_limits<double>::infinity());
      }
    }
  }
}

// The one padding rule: (n / 4 + 1) · 4 lanes, every lane past n a
// sentinel, whether the batch is fresh, reloaded smaller or larger, or
// gathered.
TEST(RectBatchTest, EveryBatchHoldsExactlyThePaddingRule) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 40; ++n) sizes.push_back(n);
  for (const size_t n : {102, 103, 256, 3, 101}) sizes.push_back(n);
  Rng rng(30);
  RectBatch reloaded;
  RectBatch gathered;
  for (const size_t n : sizes) {
    const auto rects = FuzzRects(rng, static_cast<int>(n), 0.3);
    RectBatch fresh;
    fresh.Assign(rects);
    reloaded.Assign(rects);
    std::vector<uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    gathered.AssignGather(fresh.view(), all);
    for (const RectBatch* b : {&fresh, &reloaded, &gathered}) {
      ASSERT_EQ(b->size(), n);
      ASSERT_EQ(b->padded_size(), (n / 4 + 1) * 4) << "n=" << n;
      ASSERT_EQ(b->view().padded, b->padded_size());
      for (size_t i = n; i < b->padded_size(); ++i) {
        EXPECT_EQ(b->xl()[i], kInf) << "n=" << n << " lane " << i;
        EXPECT_EQ(b->yl()[i], kInf) << "n=" << n << " lane " << i;
        EXPECT_EQ(b->xu()[i], -kInf) << "n=" << n << " lane " << i;
        EXPECT_EQ(b->yu()[i], -kInf) << "n=" << n << " lane " << i;
      }
    }
  }
}

TEST(RectBatchTest, BatchedSortedOrderMatchesScalar) {
  Rng rng(14);
  for (const int count : {0, 1, 2, 50, 130}) {
    const auto rects = FuzzRects(rng, count, 0.2);
    RectBatch batch;
    batch.Assign(rects);
    std::vector<uint32_t> order;
    std::vector<std::pair<uint64_t, uint32_t>> keys;
    SortedOrderByXl(batch.view(), &order, &keys);
    EXPECT_EQ(order, SortedOrderByXl(std::span<const Rect>(rects)));
  }
}

// The sort keys a node can hold: NaN of either sign (bulk and page-file
// loads do not validate rects), infinities, subnormals, and -0.0 beside
// +0.0. The order must be a strict weak one for std::sort: ascending xl,
// NaN last, ties by index.
TEST(RectBatchTest, SortedOrderPlacesNaNKeysLast) {
  using Limits = std::numeric_limits<double>;
  constexpr double kInf = Limits::infinity();
  const double nan = Limits::quiet_NaN();
  const double keys[] = {nan,  0.5,  -0.0, kInf, nan,
                         0.0,  -kInf, 0.5, nan,  -0.0,
                         kInf, 0.25, std::copysign(nan, -1.0),
                         Limits::denorm_min(), -Limits::denorm_min(),
                         Limits::max(), Limits::lowest()};
  const std::vector<uint32_t> expected = {6, 16, 14, 2,  5, 9, 13, 11, 1,
                                          7, 15, 3,  10, 0, 4, 8,  12};
  std::vector<Rect> rects;
  for (const double xl : keys) rects.emplace_back(xl, 0.0, 1.0, 1.0);
  // Repeat the keys past the 32 that SortedOrderByXl sorts by insertion,
  // so its std::sort path runs too.
  std::vector<Rect> many;
  for (int copy = 0; copy < 6; ++copy) {
    many.insert(many.end(), rects.begin(), rects.end());
  }
  EXPECT_EQ(SortedOrderByXl(std::span<const Rect>(rects)), expected);
  for (const auto* set : {&rects, &many}) {
    RectBatch batch;
    batch.Assign(*set);
    std::vector<uint32_t> order;
    std::vector<std::pair<uint64_t, uint32_t>> scratch;
    SortedOrderByXl(batch.view(), &order, &scratch);
    EXPECT_EQ(order, SortedOrderByXl(std::span<const Rect>(*set)));
    for (size_t k = 1; k < order.size(); ++k) {
      const double a = (*set)[order[k - 1]].xl;
      const double b = (*set)[order[k]].xl;
      const bool in_order = std::isnan(a)
                                ? std::isnan(b) && order[k - 1] < order[k]
                                : std::isnan(b) || a < b ||
                                      (a == b && order[k - 1] < order[k]);
      EXPECT_TRUE(in_order) << "k=" << k;
    }
  }
}

// The load-bearing invariant: the batched sorted sweep must be
// bit-identical to the scalar reference — same pairs, same order, same
// y-test count — because the virtual-time simulation's disk access order
// derives from the emission order.
TEST(RectBatchTest, SortedSweepIsBitIdenticalToScalar) {
  Rng rng(15);
  for (int round = 0; round < 120; ++round) {
    const int nr = round % 70;
    const int ns = (round * 7) % 90;
    const double extent = round % 3 == 0 ? 0.02 : (round % 3 == 1 ? 0.2 : 0.6);
    const auto r = SortByXl(FuzzRects(rng, nr, extent));
    const auto s = SortByXl(FuzzRects(rng, ns, extent));

    std::vector<Pair> scalar_pairs;
    size_t scalar_tests = 0;
    PlaneSweepJoinSortedScalar(
        std::span<const Rect>(r), std::span<const Rect>(s),
        [&](size_t i, size_t j) { scalar_pairs.emplace_back(i, j); },
        &scalar_tests);

    std::vector<Pair> batch_pairs;
    const size_t batch_tests = BatchSweep(r, s, &batch_pairs);

    EXPECT_EQ(batch_pairs, scalar_pairs) << "round=" << round;
    EXPECT_EQ(batch_tests, scalar_tests) << "round=" << round;
  }
}

// An anchor with xu = +inf runs over every later rect, and one spanning the
// whole y axis passes the y test of the padding sentinels too: the batched
// sweep must still stop at the real rects.
TEST(RectBatchTest, InfiniteAnchorsStopAtTheRealRects) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(19);
  for (int round = 0; round < 60; ++round) {
    auto r = FuzzRects(rng, 1 + round % 23, 0.3);
    auto s = FuzzRects(rng, 1 + (round * 5) % 37, 0.3);
    for (auto* side : {&r, &s}) {
      for (size_t k = round % 3; k < side->size(); k += 4) {
        Rect& rect = (*side)[k];
        if (k % 2 == 0) {
          rect = Rect(rect.xl, -kInf, kInf, kInf);
        } else {
          rect = Rect(-kInf, -kInf, kInf, kInf);
        }
      }
    }
    r = SortByXl(r);
    s = SortByXl(s);
    std::vector<Pair> scalar_pairs;
    size_t scalar_tests = 0;
    PlaneSweepJoinSortedScalar(
        std::span<const Rect>(r), std::span<const Rect>(s),
        [&](size_t i, size_t j) { scalar_pairs.emplace_back(i, j); },
        &scalar_tests);
    std::vector<Pair> batch_pairs;
    const size_t batch_tests = BatchSweep(r, s, &batch_pairs);
    EXPECT_EQ(batch_pairs, scalar_pairs) << "round=" << round;
    EXPECT_EQ(batch_tests, scalar_tests) << "round=" << round;
  }
}

TEST(RectBatchTest, UnsortedSweepMatchesBruteForcePairSet) {
  Rng rng(17);
  for (int round = 0; round < 60; ++round) {
    const auto r = FuzzRects(rng, round % 50, 0.3);
    const auto s = FuzzRects(rng, (round * 5) % 50, 0.3);
    const std::vector<Pair> sweep = SortAndSweep(r, s);
    std::vector<Pair> brute;
    BruteForceJoin(std::span<const Rect>(r), std::span<const Rect>(s),
                   [&](size_t i, size_t j) { brute.emplace_back(i, j); });
    EXPECT_EQ(std::set<Pair>(sweep.begin(), sweep.end()),
              std::set<Pair>(brute.begin(), brute.end()))
        << "round=" << round;
    EXPECT_EQ(sweep.size(), brute.size());
  }
}

TEST(RectBatchTest, EdgeAndCornerTouchingRectsAreEmitted) {
  // Shared edge, shared corner, and identical degenerate point-rects: the
  // closed-boundary convention means all of these intersect.
  const std::vector<Rect> r = {Rect(0, 0, 1, 1), Rect(2, 2, 2, 2)};
  const std::vector<Rect> s = {Rect(1, 0, 2, 1),   // Shares the x=1 edge.
                               Rect(1, 1, 2, 2),   // Shares corner (1,1);
                                                   // corner (2,2) is r[1].
                               Rect(2, 2, 2, 2)};  // Identical point.
  const std::vector<Pair> pairs = SortAndSweep(r, s);
  EXPECT_EQ(std::set<Pair>(pairs.begin(), pairs.end()),
            (std::set<Pair>{{0, 0}, {0, 1}, {1, 1}, {1, 2}}));
}

}  // namespace
}  // namespace psj
