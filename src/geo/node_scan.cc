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

// Set bit positions of the 4-bit mask, ascending, zero-padded — the same
// compressed-store table rect_batch.cc uses, so a mask's survivors go out
// with one unconditional store advancing by popcount.
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

#else  // !PSJ_NODE_SCAN_X86

void ScanIntersectingSse2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids) {
  ScanIntersectingScalar(node, query, out_ids);
}

void ScanIntersectingAvx2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids) {
  ScanIntersectingScalar(node, query, out_ids);
}

#endif  // PSJ_NODE_SCAN_X86

}  // namespace psj
