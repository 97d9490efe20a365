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

// Minimal SIMD veneer over packed doubles. Each comparison kernel below is
// written once against these primitives; the predicate results come back as
// one bit per lane (movemask), so survivor emission is a countr_zero loop
// over a small integer instead of a per-lane branch.
#if defined(__AVX__)

constexpr size_t kWidth = 4;
using VecD = __m256d;
inline VecD Load(const double* p) { return _mm256_loadu_pd(p); }
inline VecD Set1(double v) { return _mm256_set1_pd(v); }
inline VecD CmpLe(VecD a, VecD b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
inline VecD And(VecD a, VecD b) { return _mm256_and_pd(a, b); }
inline uint32_t MoveMask(VecD m) {
  return static_cast<uint32_t>(_mm256_movemask_pd(m));
}

#elif defined(__SSE2__)

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

static_assert(RectBatch::kBlock % kWidth == 0,
              "padding quantum must cover a whole vector");

struct ClipVecs {
  VecD xl, yl, xu, yu;
};

inline ClipVecs Broadcast(const Rect& clip) {
  return ClipVecs{Set1(clip.xl), Set1(clip.yl), Set1(clip.xu), Set1(clip.yu)};
}

// One bit per lane k in [0, kWidth): batch[l + k] intersects the clip rect
// (closed boundaries). Sentinel lanes always report 0.
inline uint32_t IntersectMask(const RectBatch& batch, size_t l,
                              const ClipVecs& c) {
  const VecD x_ok =
      And(CmpLe(Load(batch.xl() + l), c.xu), CmpLe(c.xl, Load(batch.xu() + l)));
  const VecD y_ok =
      And(CmpLe(Load(batch.yl() + l), c.yu), CmpLe(c.yl, Load(batch.yu() + l)));
  return MoveMask(And(x_ok, y_ok));
}

// The plane-sweep forward scan: starting at `lo` (batch sorted ascending by
// xl), scans while xl <= anchor_xu, calling append(l) for every rectangle in
// the run whose y-extent overlaps [anchor_yl, anchor_yu], in ascending order.
// Returns the run length (= number of y-tests). Because xl is sorted, the
// in-run bits of each window form a prefix, so the run ends at the first zero
// bit and the window where that happens is the last one examined. The run
// never reaches past size(): for a finite anchor_xu the sentinel lanes
// (xl = +inf) end it there, and for anchor_xu = +inf the last window masks
// them off — they would join the run, and an anchor spanning the whole y
// axis passes their y test.
template <typename Append>
inline size_t ForwardScan(const RectBatch& batch, size_t lo, double anchor_xu,
                          double anchor_yl, double anchor_yu, Append&& append) {
  const size_t n = batch.size();
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
    const uint32_t run = MoveMask(CmpLe(Load(batch.xl() + l), axu));
    uint32_t y_hit = MoveMask(And(CmpLe(ayl, Load(batch.yu() + l)),
                                  CmpLe(Load(batch.yl() + l), ayu)));
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
    const uint32_t run = MoveMask(CmpLe(Load(batch.xl() + l), axu)) &
                         ((1u << (n - l)) - 1u);
    const uint32_t y_hit = MoveMask(And(CmpLe(ayl, Load(batch.yu() + l)),
                                        CmpLe(Load(batch.yl() + l), ayu)));
    const unsigned prefix = std::countr_zero(~run & kFullMask);
    tests += prefix;
    append_hits(l, y_hit & ((1u << prefix) - 1u));
  }
  return tests;
}

#if defined(__AVX2__)

// Compressed-store tables: kCompressU32[m] / kCompressU64[m] hold the set bit
// positions of the 4-bit mask m in ascending order (padded with zeros), so a
// mask's survivors can be emitted with one unconditional vector store whose
// write cursor advances by popcount(m) — no per-lane branch, no mispredicts
// on the (data-random) hit pattern.
#define PSJ_COMPRESS_ROWS(T)                                              \
  {                                                                       \
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},              \
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},              \
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},              \
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3},              \
  }
alignas(16) constexpr uint32_t kCompressU32[16][4] = PSJ_COMPRESS_ROWS(u);
alignas(32) constexpr uint64_t kCompressU64Lo[16][4] = PSJ_COMPRESS_ROWS(ull);
#undef PSJ_COMPRESS_ROWS

// Same table with the lane positions pre-shifted into the high 32 bits, for
// scans whose running index lands in a pair's `second` member.
constexpr auto MakeCompressU64Hi() {
  struct Table {
    alignas(32) uint64_t rows[16][4];
  } t{};
  for (int m = 0; m < 16; ++m) {
    for (int k = 0; k < 4; ++k) {
      t.rows[m][k] = kCompressU64Lo[m][k] << 32;
    }
  }
  return t;
}
alignas(32) constexpr auto kCompressU64Hi = MakeCompressU64Hi();

#endif  // defined(__AVX2__)

}  // namespace

const char* RectBatchSimdLevel() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "scalar";
#endif
}

void FilterIntersecting(const RectBatch& batch, const Rect& clip,
                        std::vector<uint32_t>* out_ids) {
  const size_t n = batch.size();
  const ClipVecs c = Broadcast(clip);
#if defined(__AVX2__)
  // Branchless compress-store emission; trim to the real count at the end.
  constexpr size_t kLookahead = 8;  // One cache line of doubles.
  out_ids->resize(n + kWidth);
  uint32_t* const out = out_ids->data();
  size_t count = 0;
  for (size_t base = 0; base < n; base += kWidth) {
    // Four read streams is enough to trip up the hardware prefetcher once
    // the batch falls out of L1; pull the next line of each in explicitly.
    __builtin_prefetch(batch.xl() + base + kLookahead);
    __builtin_prefetch(batch.yl() + base + kLookahead);
    __builtin_prefetch(batch.xu() + base + kLookahead);
    __builtin_prefetch(batch.yu() + base + kLookahead);
    const uint32_t m = IntersectMask(batch, base, c);
    const __m128i lanes = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int>(base)),
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompressU32[m])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), lanes);
    count += static_cast<size_t>(std::popcount(m));
  }
  out_ids->resize(count);
#else
  out_ids->clear();
  for (size_t base = 0; base < n; base += kWidth) {
    for (uint32_t bits = IntersectMask(batch, base, c); bits != 0;
         bits &= bits - 1) {
      out_ids->push_back(
          static_cast<uint32_t>(base + std::countr_zero(bits)));
    }
  }
#endif
  // The last vector can reach past size() into the padding, whose
  // sentinels satisfy exactly one clip, the whole plane
  // (-inf, -inf, +inf, +inf). Hits are ascending, so any such lanes sit
  // at the end.
  while (!out_ids->empty() && out_ids->back() >= n) out_ids->pop_back();
}

size_t FirstIntersecting(const RectBatch& batch, const Rect& query) {
  const size_t n = batch.size();
  const ClipVecs c = Broadcast(query);
  for (size_t base = 0; base < n; base += kWidth) {
    const uint32_t bits = IntersectMask(batch, base, c);
    if (bits != 0) {
      // A first hit past size() is a sentinel lane, which only the whole
      // plane (-inf, -inf, +inf, +inf) reaches; no real lane follows it.
      const size_t first = base + std::countr_zero(bits);
      return first < n ? first : RectBatch::npos;
    }
  }
  return RectBatch::npos;
}

size_t CountAndEmitYOverlaps(const RectBatch& batch, size_t lo,
                             double anchor_xu, double anchor_yl,
                             double anchor_yu, std::vector<uint32_t>* hits) {
  return ForwardScan(batch, lo, anchor_xu, anchor_yl, anchor_yu, [&](size_t l) {
    hits->push_back(static_cast<uint32_t>(l));
  });
}

#if defined(__AVX2__)

// AVX2 fused sweep. Three branch-elimination tricks on top of the generic
// version, all aimed at the short (a-handful-of-lanes) forward runs of real
// node joins where mispredicts dominate:
//  - the anchor side is chosen with conditional moves, not a branch — which
//    side anchors next is data-random, so a branch there mispredicts
//    constantly;
//  - hits are emitted as 64-bit (first, second) pair images through the
//    compressed-store tables, unconditional 32-byte stores with the write
//    cursor advancing by popcount — no branch on the (data-random) hit
//    pattern;
//  - each scan step covers 8 lanes (two vectors) with no branch in between,
//    so the only loop branch asks "does the run extend past 8 lanes?" —
//    almost always false for node-sized inputs, hence well predicted.
// A pair is stored as first | second << 32 (x86 is little-endian, so the low
// word lands in `first`); the anchor index sits in one half and the scanned
// index l in the other, so lane k's image is base + (k << shift) with the
// shift baked into the per-side lookup table.
size_t SweepCollectPairs(const RectBatch& r, const RectBatch& s,
                         std::vector<std::pair<uint32_t, uint32_t>>* pairs) {
  static_assert(sizeof(std::pair<uint32_t, uint32_t>) == sizeof(uint64_t));
  constexpr size_t kStep = 2 * kWidth;  // Lanes per scan-loop iteration.
  const size_t nr = r.size();
  const size_t ns = s.size();
  if (pairs->size() < 64) {
    pairs->resize(64);
  }
  size_t cap = pairs->size();
  uint64_t* out = reinterpret_cast<uint64_t*>(pairs->data());
  size_t count = 0;
  const double* const rxl = r.xl();
  const double* const sxl = s.xl();
  size_t i = 0;
  size_t j = 0;
  size_t tests = 0;
  while (i < nr && j < ns) {
    // Anchor selection via conditional moves (r wins xl ties, as in the
    // scalar sweep).
    const bool r_anchor = rxl[i] <= sxl[j];
    const RectBatch& scan = r_anchor ? s : r;
    const size_t anchor = r_anchor ? i : j;
    const size_t lo = r_anchor ? j : i;
    const double* const axu_arr = r_anchor ? r.xu() : s.xu();
    const double* const ayl_arr = r_anchor ? r.yl() : s.yl();
    const double* const ayu_arr = r_anchor ? r.yu() : s.yu();
    const VecD axu = Set1(axu_arr[anchor]);
    const VecD ayl = Set1(ayl_arr[anchor]);
    const VecD ayu = Set1(ayu_arr[anchor]);
    // r-anchor pairs are (anchor, l): l goes in the high half. s-anchor
    // pairs are (l, anchor): l goes in the low half.
    const uint64_t base0 =
        r_anchor ? (static_cast<uint64_t>(lo) << 32) | anchor
                 : (static_cast<uint64_t>(anchor) << 32) | lo;
    const uint64_t(*const lut)[4] =
        r_anchor ? kCompressU64Hi.rows : kCompressU64Lo;
    __m256i base_v = _mm256_set1_epi64x(static_cast<int64_t>(base0));
    const __m256i step_v = _mm256_set1_epi64x(
        static_cast<int64_t>(kWidth) << (r_anchor ? 32 : 0));
    const size_t tests_before = tests;
    const size_t count_before = count;
    // The kernel reads eight array streams (4 coords x 2 sides) — too many
    // for the hardware prefetcher to track reliably once the working set
    // spills out of L1 — so pull the next cache line of each scan-side
    // stream in explicitly.
    __builtin_prefetch(scan.xl() + lo + kStep);
    __builtin_prefetch(scan.yl() + lo + kStep);
    __builtin_prefetch(scan.yu() + lo + kStep);
    for (size_t l = lo; l + kStep <= scan.padded_size(); l += kStep) {
      const uint32_t run =
          MoveMask(CmpLe(Load(scan.xl() + l), axu)) |
          MoveMask(CmpLe(Load(scan.xl() + l + kWidth), axu)) << kWidth;
      uint32_t y_hit =
          MoveMask(And(CmpLe(ayl, Load(scan.yu() + l)),
                       CmpLe(Load(scan.yl() + l), ayu))) |
          MoveMask(And(CmpLe(ayl, Load(scan.yu() + l + kWidth)),
                       CmpLe(Load(scan.yl() + l + kWidth), ayu)))
              << kWidth;
      constexpr uint32_t kFullStep = (1u << kStep) - 1;
      const bool last = run != kFullStep;
      const unsigned prefix =
          last ? static_cast<unsigned>(std::countr_zero(~run & kFullStep))
               : static_cast<unsigned>(kStep);
      tests += prefix;
      y_hit &= (1u << prefix) - 1u;
      if (count + kStep > cap) {
        cap = 2 * cap + 2 * kStep;
        pairs->resize(cap);
        out = reinterpret_cast<uint64_t*>(pairs->data());
      }
      const uint32_t lo_bits = y_hit & kFullMask;
      const uint32_t hi_bits = y_hit >> kWidth;
      const __m256i base_hi = _mm256_add_epi64(base_v, step_v);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + count),
          _mm256_add_epi64(base_v, _mm256_load_si256(reinterpret_cast<
                                       const __m256i*>(lut[lo_bits]))));
      count += static_cast<size_t>(std::popcount(lo_bits));
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(out + count),
          _mm256_add_epi64(base_hi, _mm256_load_si256(reinterpret_cast<
                                        const __m256i*>(lut[hi_bits]))));
      count += static_cast<size_t>(std::popcount(hi_bits));
      if (last) {
        break;
      }
      base_v = _mm256_add_epi64(base_hi, step_v);
    }
    // Only anchor_xu = +inf carries the run past the real lanes, as the
    // sentinels' xl is +inf: cut the test count at size(), and drop the
    // sentinels' pairs — an anchor spanning the whole y axis passes their
    // y test. They were emitted last, with the scanned index in the half
    // the lookup table put it.
    if (tests - tests_before > scan.size() - lo) {
      tests = tests_before + (scan.size() - lo);
      const unsigned scanned_shift = r_anchor ? 32 : 0;
      while (count > count_before &&
             (out[count - 1] >> scanned_shift & 0xffffffffu) >= scan.size()) {
        --count;
      }
    }
    i += static_cast<size_t>(r_anchor);
    j += static_cast<size_t>(!r_anchor);
  }
  pairs->resize(count);
  return tests;
}

#else  // !defined(__AVX2__)

size_t SweepCollectPairs(const RectBatch& r, const RectBatch& s,
                         std::vector<std::pair<uint32_t, uint32_t>>* pairs) {
  pairs->clear();
  const size_t nr = r.size();
  const size_t ns = s.size();
  const double* const rxl = r.xl();
  const double* const sxl = s.xl();
  size_t i = 0;
  size_t j = 0;
  size_t tests = 0;
  while (i < nr && j < ns) {
    if (rxl[i] <= sxl[j]) {
      tests += ForwardScan(s, j, r.xu()[i], r.yl()[i], r.yu()[i],
                           [&](size_t l) {
                             pairs->emplace_back(static_cast<uint32_t>(i),
                                                 static_cast<uint32_t>(l));
                           });
      ++i;
    } else {
      tests += ForwardScan(r, i, s.xu()[j], s.yl()[j], s.yu()[j],
                           [&](size_t l) {
                             pairs->emplace_back(static_cast<uint32_t>(l),
                                                 static_cast<uint32_t>(j));
                           });
      ++j;
    }
  }
  return tests;
}

#endif  // defined(__AVX2__)

uint64_t XlSortKey(double xl) {
  if (std::isnan(xl)) return std::numeric_limits<uint64_t>::max();
  // Adding +0.0 turns -0.0 into +0.0. Setting the sign bit lifts the
  // non-negative doubles, whose bit patterns ascend with their values,
  // above the negative ones, whose order the complement reverses.
  const uint64_t bits = std::bit_cast<uint64_t>(xl + 0.0);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

namespace {

// Largest input SortedOrderByXl sorts by insertion rather than std::sort.
constexpr size_t kInsertionSortMax = 32;

void SortedOrderByXlPlane(
    const double* xl, size_t n, std::vector<uint32_t>* order,
    std::vector<std::pair<uint64_t, uint32_t>>* key_scratch) {
  key_scratch->resize(n);
  std::pair<uint64_t, uint32_t>* const keys = key_scratch->data();
  if (n <= kInsertionSortMax) {
    // Node-sized inputs: straight insertion in index order, which beats
    // std::sort's partitioning pass there (Seal() sorts every node). Each
    // key goes in behind its equals, so ties keep index order.
    for (size_t i = 0; i < n; ++i) {
      const std::pair<uint64_t, uint32_t> key{XlSortKey(xl[i]),
                                              static_cast<uint32_t>(i)};
      size_t k = i;
      for (; k > 0 && key.first < keys[k - 1].first; --k) {
        keys[k] = keys[k - 1];
      }
      keys[k] = key;
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      keys[i] = {XlSortKey(xl[i]), static_cast<uint32_t>(i)};
    }
    std::sort(keys, keys + n);
  }
  order->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*order)[i] = keys[i].second;
  }
}

}  // namespace

void SortedOrderByXl(const RectBatch& batch, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch) {
  SortedOrderByXlPlane(batch.xl(), batch.size(), order, key_scratch);
}

void SortedOrderByXl(const RectSoAView& view, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch) {
  SortedOrderByXlPlane(view.xl, view.size, order, key_scratch);
}

}  // namespace psj
