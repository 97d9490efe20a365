#include "geo/rect_batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <immintrin.h>
#endif

namespace psj {
namespace {

// Minimal SIMD veneer over packed doubles. The sweep kernel below is
// written once against these primitives; the predicate results come back as
// one bit per lane (movemask), so hit emission is a countr_zero loop over a
// small integer instead of a per-lane branch. SSE2 is part of the x86-64
// baseline, so every x86-64 build takes the 2-lane path.
#if defined(__SSE2__)

constexpr size_t kWidth = 2;
using VecD = __m128d;
inline VecD Load(const double* p) { return _mm_loadu_pd(p); }
inline VecD Set1(double v) { return _mm_set1_pd(v); }
inline VecD CmpLe(VecD a, VecD b) { return _mm_cmple_pd(a, b); }
inline VecD And(VecD a, VecD b) { return _mm_and_pd(a, b); }
inline uint32_t MoveMask(VecD m) {
  return static_cast<uint32_t>(_mm_movemask_pd(m));
}

#else

// Portable single-lane fallback: "masks" are 0.0 / 1.0.
constexpr size_t kWidth = 1;
using VecD = double;
inline VecD Load(const double* p) { return *p; }
inline VecD Set1(double v) { return v; }
inline VecD CmpLe(VecD a, VecD b) { return a <= b ? 1.0 : 0.0; }
inline VecD And(VecD a, VecD b) { return a != 0.0 && b != 0.0 ? 1.0 : 0.0; }
inline uint32_t MoveMask(VecD m) { return m != 0.0 ? 1u : 0u; }

#endif

constexpr uint32_t kFullMask = (1u << kWidth) - 1;

static_assert(kWidth <= 2,
              "a last window from lane size - 1 may read only lane size");

// The plane-sweep forward scan: starting at `lo` (view sorted ascending by
// xl), scans while xl <= anchor_xu, calling append(l) for every rectangle in
// the run whose y-extent overlaps [anchor_yl, anchor_yu], in ascending order.
// Returns the run length (= number of y-tests). Because xl is sorted, the
// in-run bits of each window form a prefix, so the run ends at the first zero
// bit and the window where that happens is the last one examined. The run
// never reaches past size: for a finite anchor_xu the sentinel lanes
// (xl = +inf) end it there, and for anchor_xu = +inf the last window masks
// them off — they would join the run, and an anchor spanning the whole y
// axis passes their y test.
template <typename Append>
inline size_t ForwardScan(const RectSoAView& view, size_t lo,
                          double anchor_xu, double anchor_yl,
                          double anchor_yu, Append&& append) {
  const size_t n = view.size;
  const VecD axu = Set1(anchor_xu);
  const VecD ayl = Set1(anchor_yl);
  const VecD ayu = Set1(anchor_yu);
  const auto append_hits = [&](size_t l, uint32_t y_hit) {
    for (; y_hit != 0; y_hit &= y_hit - 1) {
      append(l + static_cast<size_t>(std::countr_zero(y_hit)));
    }
  };
  size_t tests = 0;
  size_t l = lo;
  for (; l + kWidth <= n; l += kWidth) {
    const uint32_t run = MoveMask(CmpLe(Load(view.xl + l), axu));
    uint32_t y_hit = MoveMask(And(CmpLe(ayl, Load(view.yu + l)),
                                  CmpLe(Load(view.yl + l), ayu)));
    if (run != kFullMask) {
      const unsigned prefix = std::countr_zero(~run & kFullMask);
      tests += prefix;
      append_hits(l, y_hit & ((1u << prefix) - 1u));
      return tests;
    }
    tests += kWidth;
    append_hits(l, y_hit);
  }
  if (l < n) {
    // The window of the last n - l < kWidth real lanes.
    const uint32_t run = MoveMask(CmpLe(Load(view.xl + l), axu)) &
                         ((1u << (n - l)) - 1u);
    const uint32_t y_hit = MoveMask(And(CmpLe(ayl, Load(view.yu + l)),
                                        CmpLe(Load(view.yl + l), ayu)));
    const unsigned prefix = std::countr_zero(~run & kFullMask);
    tests += prefix;
    append_hits(l, y_hit & ((1u << prefix) - 1u));
  }
  return tests;
}

}  // namespace

const char* RectBatchSimdLevel() {
#if defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

size_t SweepCollectPairs(const RectSoAView& r, const RectSoAView& s,
                         std::vector<std::pair<uint32_t, uint32_t>>* pairs) {
  pairs->clear();
  const double* const rxl = r.xl;
  const double* const sxl = s.xl;
  size_t i = 0;
  size_t j = 0;
  size_t tests = 0;
  while (i < r.size && j < s.size) {
    if (rxl[i] <= sxl[j]) {
      tests += ForwardScan(s, j, r.xu[i], r.yl[i], r.yu[i], [&](size_t l) {
        pairs->emplace_back(static_cast<uint32_t>(i), static_cast<uint32_t>(l));
      });
      ++i;
    } else {
      tests += ForwardScan(r, i, s.xu[j], s.yl[j], s.yu[j], [&](size_t l) {
        pairs->emplace_back(static_cast<uint32_t>(l), static_cast<uint32_t>(j));
      });
      ++j;
    }
  }
  return tests;
}

uint64_t XlSortKey(double xl) {
  if (std::isnan(xl)) return std::numeric_limits<uint64_t>::max();
  // Adding +0.0 turns -0.0 into +0.0. Setting the sign bit lifts the
  // non-negative doubles, whose bit patterns ascend with their values,
  // above the negative ones, whose order the complement reverses.
  const uint64_t bits = std::bit_cast<uint64_t>(xl + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

void SortedOrderByXl(const RectSoAView& view, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch) {
  // Largest input sorted by insertion rather than std::sort.
  constexpr size_t kInsertionSortMax = 32;
  const size_t n = view.size;
  key_scratch->resize(n);
  std::pair<uint64_t, uint32_t>* const keys = key_scratch->data();
  if (n <= kInsertionSortMax) {
    // Node-sized inputs: straight insertion in index order, which beats
    // std::sort's partitioning pass there (Seal() sorts every node). Each
    // key goes in behind its equals, so ties keep index order.
    for (size_t i = 0; i < n; ++i) {
      const std::pair<uint64_t, uint32_t> key{XlSortKey(view.xl[i]),
                                              static_cast<uint32_t>(i)};
      size_t k = i;
      for (; k > 0 && key.first < keys[k - 1].first; --k) {
        keys[k] = keys[k - 1];
      }
      keys[k] = key;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      keys[i] = {XlSortKey(view.xl[i]), static_cast<uint32_t>(i)};
    }
    std::sort(keys, keys + n);
  }
  order->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*order)[i] = keys[i].second;
  }
}

}  // namespace psj
