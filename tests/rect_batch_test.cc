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

TEST(RectBatchTest, AssignRoundTripsAndPads) {
  Rng rng(10);
  const auto rects = FuzzRects(rng, 37, 0.2);
  RectBatch batch;
  batch.Assign(rects);
  ASSERT_EQ(batch.size(), rects.size());
  EXPECT_GE(batch.padded_size(), batch.size() + RectBatch::kBlock);
  EXPECT_EQ(batch.padded_size() % RectBatch::kBlock, 0u);
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
    gathered.AssignGather(batch, every_other);
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

TEST(RectBatchTest, FilterIntersectingMatchesScalarLoop) {
  Rng rng(11);
  for (const int count : {0, 1, 5, 16, 17, 64, 100, 257}) {
    const auto rects = FuzzRects(rng, count, 0.3);
    const Rect clip(0.2, 0.2, 0.7, 0.7);
    RectBatch batch;
    batch.Assign(rects);
    std::vector<uint32_t> ids;
    FilterIntersecting(batch, clip, &ids);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < rects.size(); ++i) {
      if (rects[i].Intersects(clip)) expected.push_back(i);
    }
    EXPECT_EQ(ids, expected) << "count=" << count;
  }
}

// The padding sentinels satisfy exactly one query, the whole plane; no
// kernel may report a padding lane for it.
TEST(RectBatchTest, WholePlaneQueryYieldsExactlyTheRealIndices) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const Rect whole(-kInf, -kInf, kInf, kInf);
  Rng rng(18);
  for (int n = 0; n <= 40; ++n) {
    const auto rects = FuzzRects(rng, n, 0.3);
    RectBatch batch;
    batch.Assign(rects);
    std::vector<uint32_t> ids;
    FilterIntersecting(batch, whole, &ids);
    std::vector<uint32_t> expected(static_cast<size_t>(n));
    std::iota(expected.begin(), expected.end(), 0u);
    EXPECT_EQ(ids, expected) << "n=" << n;
  }
  // With every real rect failing (NaN), a hit could only be padding.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int n = 1; n <= 8; ++n) {
    RectBatch batch;
    batch.Assign(std::vector<Rect>(static_cast<size_t>(n),
                                   Rect(nan, nan, nan, nan)));
    EXPECT_EQ(FirstIntersecting(batch, whole), RectBatch::npos) << "n=" << n;
  }
}

TEST(RectBatchTest, FirstIntersectingMatchesScalarLoop) {
  Rng rng(12);
  for (int round = 0; round < 50; ++round) {
    const auto rects = FuzzRects(rng, round % 40, 0.1);
    const auto probes = FuzzRects(rng, 5, 0.3);
    RectBatch batch;
    batch.Assign(rects);
    for (const Rect& q : probes) {
      size_t expected = RectBatch::npos;
      for (size_t i = 0; i < rects.size(); ++i) {
        if (rects[i].Intersects(q)) {
          expected = i;
          break;
        }
      }
      EXPECT_EQ(FirstIntersecting(batch, q), expected);
    }
  }
}

TEST(RectBatchTest, CountAndEmitMatchesScalarForwardScan) {
  Rng rng(13);
  for (int round = 0; round < 60; ++round) {
    const auto rects = SortByXl(FuzzRects(rng, 3 + round * 2, 0.25));
    RectBatch batch;
    batch.Assign(rects);
    const auto anchors = FuzzRects(rng, 4, 0.4);
    for (const Rect& anchor : anchors) {
      const size_t lo = static_cast<size_t>(
          rng.NextDoubleInRange(0.0, static_cast<double>(rects.size())));
      std::vector<uint32_t> hits;
      const size_t tests = CountAndEmitYOverlaps(
          batch, lo, anchor.xu, anchor.yl, anchor.yu, &hits);
      std::vector<uint32_t> expected_hits;
      size_t expected_tests = 0;
      for (size_t l = lo; l < rects.size() && rects[l].xl <= anchor.xu; ++l) {
        ++expected_tests;
        if (anchor.yl <= rects[l].yu && rects[l].yl <= anchor.yu) {
          expected_hits.push_back(static_cast<uint32_t>(l));
        }
      }
      EXPECT_EQ(hits, expected_hits);
      EXPECT_EQ(tests, expected_tests);
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
    SortedOrderByXl(batch, &order, &keys);
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
    SortedOrderByXl(batch, &order, &scratch);
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
    size_t batch_tests = 0;
    PlaneSweepJoinSorted(
        std::span<const Rect>(r), std::span<const Rect>(s),
        [&](size_t i, size_t j) { batch_pairs.emplace_back(i, j); },
        &batch_tests);

    EXPECT_EQ(batch_pairs, scalar_pairs) << "round=" << round;
    EXPECT_EQ(batch_tests, scalar_tests) << "round=" << round;
  }
}

// An anchor with xu = +inf runs over every later rect, and one spanning the
// whole y axis passes the y test of the padding sentinels too: the batched
// sweep and forward scan must still stop at the real rects.
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
    size_t batch_tests = 0;
    PlaneSweepJoinSorted(
        std::span<const Rect>(r), std::span<const Rect>(s),
        [&](size_t i, size_t j) { batch_pairs.emplace_back(i, j); },
        &batch_tests);
    EXPECT_EQ(batch_pairs, scalar_pairs) << "round=" << round;
    EXPECT_EQ(batch_tests, scalar_tests) << "round=" << round;

    RectBatch batch;
    batch.Assign(s);
    for (size_t lo = 0; lo <= s.size(); ++lo) {
      std::vector<uint32_t> hits;
      const size_t tests =
          CountAndEmitYOverlaps(batch, lo, kInf, -kInf, kInf, &hits);
      std::vector<uint32_t> expected(s.size() - lo);
      std::iota(expected.begin(), expected.end(), static_cast<uint32_t>(lo));
      EXPECT_EQ(hits, expected) << "round=" << round << " lo=" << lo;
      EXPECT_EQ(tests, s.size() - lo);
    }
  }
}

// Scalar reference for the full restricted pipeline, replicating the
// pre-batching implementation (filter in index order, sort ties by kept
// position, sweep).
void ScalarRestrictedSweep(std::span<const Rect> r, std::span<const Rect> s,
                           const Rect* clip, std::vector<Pair>* pairs,
                           size_t* considered_r, size_t* considered_s) {
  std::vector<Rect> r_kept;
  std::vector<Rect> s_kept;
  std::vector<uint32_t> r_ids;
  std::vector<uint32_t> s_ids;
  for (uint32_t k = 0; k < r.size(); ++k) {
    if (clip == nullptr || r[k].Intersects(*clip)) {
      r_kept.push_back(r[k]);
      r_ids.push_back(k);
    }
  }
  for (uint32_t k = 0; k < s.size(); ++k) {
    if (clip == nullptr || s[k].Intersects(*clip)) {
      s_kept.push_back(s[k]);
      s_ids.push_back(k);
    }
  }
  if (considered_r != nullptr) *considered_r = r_kept.size();
  if (considered_s != nullptr) *considered_s = s_kept.size();
  const auto r_order = SortedOrderByXl(std::span<const Rect>(r_kept));
  const auto s_order = SortedOrderByXl(std::span<const Rect>(s_kept));
  std::vector<Rect> r_sorted(r_kept.size());
  std::vector<Rect> s_sorted(s_kept.size());
  for (size_t k = 0; k < r_kept.size(); ++k) r_sorted[k] = r_kept[r_order[k]];
  for (size_t k = 0; k < s_kept.size(); ++k) s_sorted[k] = s_kept[s_order[k]];
  PlaneSweepJoinSortedScalar(
      std::span<const Rect>(r_sorted), std::span<const Rect>(s_sorted),
      [&](size_t i, size_t j) {
        pairs->emplace_back(r_ids[r_order[i]], s_ids[s_order[j]]);
      });
}

TEST(RectBatchTest, RestrictedSweepIsBitIdenticalToScalarPipeline) {
  Rng rng(16);
  for (int round = 0; round < 80; ++round) {
    const auto r = FuzzRects(rng, 5 + round % 60, 0.15);
    const auto s = FuzzRects(rng, 5 + (round * 3) % 60, 0.15);
    const Rect clip(0.25, 0.25, 0.8, 0.8);

    std::vector<Pair> expected;
    size_t expected_cr = 0;
    size_t expected_cs = 0;
    ScalarRestrictedSweep(r, s, &clip, &expected, &expected_cr, &expected_cs);

    std::vector<Pair> actual;
    size_t cr = 0;
    size_t cs = 0;
    RestrictedPlaneSweepJoin(std::span<const Rect>(r),
                             std::span<const Rect>(s), clip,
                             [&](size_t i, size_t j) {
                               actual.emplace_back(i, j);
                             },
                             &cr, &cs);
    EXPECT_EQ(actual, expected) << "round=" << round;
    EXPECT_EQ(cr, expected_cr);
    EXPECT_EQ(cs, expected_cs);
  }
}

TEST(RectBatchTest, UnsortedSweepMatchesBruteForcePairSet) {
  Rng rng(17);
  for (int round = 0; round < 60; ++round) {
    const auto r = FuzzRects(rng, round % 50, 0.3);
    const auto s = FuzzRects(rng, (round * 5) % 50, 0.3);
    std::vector<Pair> sweep;
    PlaneSweepJoin(std::span<const Rect>(r), std::span<const Rect>(s),
                   [&](size_t i, size_t j) { sweep.emplace_back(i, j); });
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
  std::vector<Pair> pairs;
  PlaneSweepJoin(std::span<const Rect>(r), std::span<const Rect>(s),
                 [&](size_t i, size_t j) { pairs.emplace_back(i, j); });
  EXPECT_EQ(std::set<Pair>(pairs.begin(), pairs.end()),
            (std::set<Pair>{{0, 0}, {0, 1}, {1, 1}, {1, 2}}));
}

}  // namespace
}  // namespace psj
