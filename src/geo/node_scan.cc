#include "geo/node_scan.h"

#include <bit>

#if defined(__x86_64__) || defined(__i386__)
#define PSJ_NODE_SCAN_X86 1
#include <immintrin.h>
#else
#define PSJ_NODE_SCAN_X86 0
#endif

namespace psj {
namespace {

#if PSJ_NODE_SCAN_X86

// Set bit positions of the 4-bit mask, ascending, zero-padded: a
// compressed-store table, so a mask's survivors go out with one
// unconditional store advancing by popcount.
alignas(16) constexpr uint32_t kCompressU32[16][4] = {
    {0, 0, 0, 0}, {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0},
    {2, 0, 0, 0}, {0, 2, 0, 0}, {1, 2, 0, 0}, {0, 1, 2, 0},
    {3, 0, 0, 0}, {0, 3, 0, 0}, {1, 3, 0, 0}, {0, 1, 3, 0},
    {2, 3, 0, 0}, {0, 2, 3, 0}, {1, 2, 3, 0}, {0, 1, 2, 3},
};

// The sentinel lanes past a view's size (xl = yl = +inf, xu = yu = -inf)
// fail every predicate except against the whole-plane query
// (-inf, -inf, +inf, +inf), where the wide kernels would emit them. Hits
// are ascending, so they can only sit at the end.
void TrimSentinelHits(size_t size, std::vector<uint32_t>* out_ids) {
  while (!out_ids->empty() && out_ids->back() >= size) out_ids->pop_back();
}

// Four rectangles, one per lane, or one rectangle in every lane.
struct RectLanes {
  __m256d xl;
  __m256d yl;
  __m256d xu;
  __m256d yu;
};

// Rect::IntersectionArea of each lane's rect in `a` with the one in `b`,
// bit for bit. std::min(x, y) is y < x ? y : x, which is
// _mm256_min_pd(y, x), and std::max(x, y) is _mm256_max_pd(y, x): that
// operand order keeps the scalar pick between equal zeros of either sign.
__attribute__((target("avx2"), always_inline)) inline __m256d
IntersectionAreas(const RectLanes& a, const RectLanes& b) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d w =
      _mm256_sub_pd(_mm256_min_pd(b.xu, a.xu), _mm256_max_pd(b.xl, a.xl));
  const __m256d h =
      _mm256_sub_pd(_mm256_min_pd(b.yu, a.yu), _mm256_max_pd(b.yl, a.yl));
  const __m256d positive =
      _mm256_and_pd(_mm256_cmp_pd(w, zero, _CMP_GT_OQ),
                    _mm256_cmp_pd(h, zero, _CMP_GT_OQ));
  return _mm256_and_pd(positive, _mm256_mul_pd(w, h));
}

#endif  // PSJ_NODE_SCAN_X86

using ScanFn = void (*)(const RectSoAView&, const Rect&,
                        std::vector<uint32_t>*);

ScanFn PickScanFn() {
  if (NodeScanHasAvx2()) return &ScanIntersectingAvx2;
  if (NodeScanHasSse2()) return &ScanIntersectingSse2;
  return &ScanIntersectingScalar;
}

}  // namespace

bool NodeScanHasSse2() {
#if PSJ_NODE_SCAN_X86
  return __builtin_cpu_supports("sse2") != 0;
#else
  return false;
#endif
}

bool NodeScanHasAvx2() {
#if PSJ_NODE_SCAN_X86
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

const char* NodeScanIsa() {
  static const char* const kIsa =
      NodeScanHasAvx2() ? "avx2" : (NodeScanHasSse2() ? "sse2" : "scalar");
  return kIsa;
}

void ScanIntersecting(const RectSoAView& node, const Rect& query,
                      std::vector<uint32_t>* out_ids) {
  static const ScanFn kFn = PickScanFn();
  kFn(node, query, out_ids);
}

void ScanIntersectingScalar(const RectSoAView& node, const Rect& query,
                            std::vector<uint32_t>* out_ids) {
  out_ids->clear();
  for (size_t i = 0; i < node.size; ++i) {
    if (node.xl[i] <= query.xu && query.xl <= node.xu[i] &&
        node.yl[i] <= query.yu && query.yl <= node.yu[i]) {
      out_ids->push_back(static_cast<uint32_t>(i));
    }
  }
}

void OverlapEnlargements(const RectSoAView& node, const Rect& rect,
                         std::vector<uint32_t>* scratch_ids,
                         std::vector<double>* out) {
  static const auto kFn = NodeScanHasAvx2() ? &OverlapEnlargementsAvx2
                                            : &OverlapEnlargementsScalar;
  kFn(node, rect, scratch_ids, out);
}

double OverlapEnlargement(const RectSoAView& node, size_t c, const Rect& rect,
                          std::vector<uint32_t>* scratch_ids) {
  const Rect candidate = node.rect(c);
  const Rect enlarged = candidate.UnionWith(rect);
  // A sibling the scan skips lies strictly outside the enlarged candidate,
  // and so outside the candidate: both of its terms are exactly +0.0.
  ScanIntersecting(node, enlarged, scratch_ids);
  double before = 0.0;
  double after = 0.0;
  for (const uint32_t j : *scratch_ids) {
    if (j == c) continue;
    const Rect sibling = node.rect(j);
    before += candidate.IntersectionArea(sibling);
    after += enlarged.IntersectionArea(sibling);
  }
  return after - before;
}

void OverlapEnlargementsScalar(const RectSoAView& node, const Rect& rect,
                               std::vector<uint32_t>* scratch_ids,
                               std::vector<double>* out) {
  out->resize(node.size);
  for (size_t c = 0; c < node.size; ++c) {
    (*out)[c] = OverlapEnlargement(node, c, rect, scratch_ids);
  }
}

void SelectInXOrder(const RectSoAView& view, const uint8_t* x_order,
                    const Rect* clip, std::vector<uint32_t>* out_ids) {
  const size_t n = view.size;
  if (clip == nullptr) {
    out_ids->assign(x_order, x_order + n);
    return;
  }
  const Rect c = *clip;
  // Every index is stored; the cursor moves past it only when the rect
  // meets the clip, so the data-random keep pattern costs no branch. The
  // walk ends at the first xl past the clip: every later xl is at least as
  // large (NaN keys, which come last, fail the test below instead).
  out_ids->resize(n);
  uint32_t* const out = out_ids->data();
  size_t count = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t i = x_order[k];
    if (view.xl[i] > c.xu) break;
    out[count] = i;
    count += static_cast<size_t>(view.xl[i] <= c.xu) &
             static_cast<size_t>(c.xl <= view.xu[i]) &
             static_cast<size_t>(view.yl[i] <= c.yu) &
             static_cast<size_t>(c.yl <= view.yu[i]);
  }
  out_ids->resize(count);
}

#if PSJ_NODE_SCAN_X86

__attribute__((target("sse2"))) void ScanIntersectingSse2(
    const RectSoAView& node, const Rect& query,
    std::vector<uint32_t>* out_ids) {
  out_ids->clear();
  const __m128d qxl = _mm_set1_pd(query.xl);
  const __m128d qyl = _mm_set1_pd(query.yl);
  const __m128d qxu = _mm_set1_pd(query.xu);
  const __m128d qyu = _mm_set1_pd(query.yu);
  // Full 2-lane reads from any base < size stay in bounds; a sentinel lane
  // past size can only match the whole-plane query, trimmed below.
  for (size_t base = 0; base < node.size; base += 2) {
    const __m128d x_ok =
        _mm_and_pd(_mm_cmple_pd(_mm_loadu_pd(node.xl + base), qxu),
                   _mm_cmple_pd(qxl, _mm_loadu_pd(node.xu + base)));
    const __m128d y_ok =
        _mm_and_pd(_mm_cmple_pd(_mm_loadu_pd(node.yl + base), qyu),
                   _mm_cmple_pd(qyl, _mm_loadu_pd(node.yu + base)));
    uint32_t bits =
        static_cast<uint32_t>(_mm_movemask_pd(_mm_and_pd(x_ok, y_ok)));
    for (; bits != 0; bits &= bits - 1) {
      out_ids->push_back(
          static_cast<uint32_t>(base + std::countr_zero(bits)));
    }
  }
  TrimSentinelHits(node.size, out_ids);
}

__attribute__((target("avx2"))) void ScanIntersectingAvx2(
    const RectSoAView& node, const Rect& query,
    std::vector<uint32_t>* out_ids) {
  const size_t n = node.size;
  const __m256d qxl = _mm256_set1_pd(query.xl);
  const __m256d qyl = _mm256_set1_pd(query.yl);
  const __m256d qxu = _mm256_set1_pd(query.xu);
  const __m256d qyu = _mm256_set1_pd(query.yu);
  // Branchless compress-store emission; trim to the real count at the end.
  out_ids->resize(n + 4);
  uint32_t* const out = out_ids->data();
  size_t count = 0;
  for (size_t base = 0; base < n; base += 4) {
    const __m256d x_ok = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(node.xl + base), qxu, _CMP_LE_OQ),
        _mm256_cmp_pd(qxl, _mm256_loadu_pd(node.xu + base), _CMP_LE_OQ));
    const __m256d y_ok = _mm256_and_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(node.yl + base), qyu, _CMP_LE_OQ),
        _mm256_cmp_pd(qyl, _mm256_loadu_pd(node.yu + base), _CMP_LE_OQ));
    const uint32_t m = static_cast<uint32_t>(
        _mm256_movemask_pd(_mm256_and_pd(x_ok, y_ok)));
    const __m128i lanes = _mm_add_epi32(
        _mm_set1_epi32(static_cast<int>(base)),
        _mm_load_si128(reinterpret_cast<const __m128i*>(kCompressU32[m])));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + count), lanes);
    count += static_cast<size_t>(std::popcount(m));
  }
  out_ids->resize(count);
  TrimSentinelHits(n, out_ids);
}

__attribute__((target("avx2"))) void OverlapEnlargementsAvx2(
    const RectSoAView& node, const Rect& rect,
    std::vector<uint32_t>* /*scratch_ids*/, std::vector<double>* out) {
  const size_t n = node.size;
  // Whole 4-lane stores; the final resize drops lanes of candidates c >= n.
  out->resize((n + 3) & ~size_t{3});
  const RectLanes r = {_mm256_set1_pd(rect.xl), _mm256_set1_pd(rect.yl),
                       _mm256_set1_pd(rect.xu), _mm256_set1_pd(rect.yu)};
  const __m256i one = _mm256_set1_epi64x(1);
  // Candidates c0..c0+3 ride in the lanes; 4-lane loads from any c0 < n
  // stay inside the view's padding. Each lane adds the terms of the direct
  // definition in its order, siblings ascending, with its own term masked
  // to +0.0, which leaves a sum in [+0, +inf] unchanged.
  for (size_t c0 = 0; c0 < n; c0 += 4) {
    const RectLanes c = {
        _mm256_loadu_pd(node.xl + c0), _mm256_loadu_pd(node.yl + c0),
        _mm256_loadu_pd(node.xu + c0), _mm256_loadu_pd(node.yu + c0)};
    // E_c = candidate.UnionWith(rect), in std::min/std::max operand order.
    const RectLanes e = {_mm256_min_pd(r.xl, c.xl), _mm256_min_pd(r.yl, c.yl),
                         _mm256_max_pd(r.xu, c.xu), _mm256_max_pd(r.yu, c.yu)};
    const int64_t first = static_cast<int64_t>(c0);
    const __m256i lane =
        _mm256_setr_epi64x(first, first + 1, first + 2, first + 3);
    __m256i sibling_index = _mm256_setzero_si256();
    __m256d before = _mm256_setzero_pd();
    __m256d after = _mm256_setzero_pd();
    for (size_t j = 0; j < n; ++j) {
      const __m256d own =
          _mm256_castsi256_pd(_mm256_cmpeq_epi64(lane, sibling_index));
      const RectLanes sibling = {
          _mm256_broadcast_sd(node.xl + j), _mm256_broadcast_sd(node.yl + j),
          _mm256_broadcast_sd(node.xu + j), _mm256_broadcast_sd(node.yu + j)};
      before = _mm256_add_pd(
          before, _mm256_andnot_pd(own, IntersectionAreas(c, sibling)));
      after = _mm256_add_pd(
          after, _mm256_andnot_pd(own, IntersectionAreas(e, sibling)));
      sibling_index = _mm256_add_epi64(sibling_index, one);
    }
    _mm256_storeu_pd(out->data() + c0, _mm256_sub_pd(after, before));
  }
  out->resize(n);
}

#else  // !PSJ_NODE_SCAN_X86

void ScanIntersectingSse2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids) {
  ScanIntersectingScalar(node, query, out_ids);
}

void ScanIntersectingAvx2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids) {
  ScanIntersectingScalar(node, query, out_ids);
}

void OverlapEnlargementsAvx2(const RectSoAView& node, const Rect& rect,
                             std::vector<uint32_t>* scratch_ids,
                             std::vector<double>* out) {
  OverlapEnlargementsScalar(node, rect, scratch_ids, out);
}

#endif  // PSJ_NODE_SCAN_X86

}  // namespace psj
