#ifndef PSJ_GEO_RECT_BATCH_H_
#define PSJ_GEO_RECT_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "geo/rect.h"

namespace psj {

/// \brief Non-owning view over four SoA coordinate planes following the
/// RectBatch conventions.
///
/// `padded` lanes are readable starting at index 0 and every lane in
/// [size, padded) holds sentinel coordinates (xl = +inf, yl = +inf,
/// xu = -inf, yu = -inf), so kernels may read full blocks past the last real
/// rectangle without bounds checks. Views are produced by RectBatch::view()
/// and by the per-tree SoA node cache (rtree/node_soa.h).
struct RectSoAView {
  const double* xl = nullptr;
  const double* yl = nullptr;
  const double* xu = nullptr;
  const double* yu = nullptr;
  size_t size = 0;
  size_t padded = 0;  // Readable lanes; >= size + RectBatch::kBlock.

  bool empty() const { return size == 0; }
  Rect rect(size_t i) const { return Rect(xl[i], yl[i], xu[i], yu[i]); }
};

/// \brief Structure-of-arrays rectangle container for the filter-step hot
/// path.
///
/// The four corner coordinates live in separate contiguous arrays so the
/// per-node predicates (clip filtering, the plane-sweep forward scan) compile
/// to branch-free comparison loops the auto-vectorizer can turn into SIMD
/// code. Every array is padded past `size()` with *sentinel* coordinates
/// (xl = +inf, xu = -inf, yl = +inf, yu = -inf) so kernels may always read a
/// full block of `kBlock` lanes starting at any index <= size() without
/// bounds checks: a sentinel lane never passes an intersection predicate and
/// always terminates the sweep's x-scan.
class RectBatch {
 public:
  /// Lanes processed per kernel block. A multiple of every SIMD width we
  /// target (2 for SSE2, 4 for AVX2, 8 for AVX-512 doubles).
  static constexpr size_t kBlock = 16;
  static constexpr size_t npos = static_cast<size_t>(-1);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of allocated lanes; always >= size() + kBlock and a multiple of
  /// kBlock, so [i, i + kBlock) is in bounds for every i <= size().
  size_t padded_size() const { return xl_.size(); }

  const double* xl() const { return xl_.data(); }
  const double* yl() const { return yl_.data(); }
  const double* xu() const { return xu_.data(); }
  const double* yu() const { return yu_.data(); }

  Rect rect(size_t i) const {
    return Rect(xl_[i], yl_[i], xu_[i], yu_[i]);
  }

  /// A view of this batch's planes (valid until the next mutating call).
  RectSoAView view() const {
    return RectSoAView{xl(), yl(), xu(), yu(), size(), padded_size()};
  }

  void Clear() { Resize(0); }

  /// Loads `rects`, replacing the previous contents.
  void Assign(std::span<const Rect> rects) {
    AssignProjected(rects, [](const Rect& r) -> const Rect& { return r; });
  }

  /// Loads a SoA view by straight plane copies (no AoS walk).
  void Assign(const RectSoAView& src) {
    Resize(src.size);
    for (size_t i = 0; i < src.size; ++i) {
      xl_[i] = src.xl[i];
      yl_[i] = src.yl[i];
      xu_[i] = src.xu[i];
      yu_[i] = src.yu[i];
    }
  }

  /// Loads `proj(element)` for every element of `range` — e.g. the `rect`
  /// member of a span of R-tree entries — without materializing an
  /// intermediate std::vector<Rect>.
  template <typename Range, typename Proj>
  void AssignProjected(const Range& range, Proj&& proj) {
    Resize(std::size(range));
    size_t i = 0;
    for (const auto& element : range) {
      const Rect& r = proj(element);
      xl_[i] = r.xl;
      yl_[i] = r.yl;
      xu_[i] = r.xu;
      yu_[i] = r.yu;
      ++i;
    }
  }

  /// Loads `src[ids[k]]` for k = 0..ids.size()-1 (a gather); used to compact
  /// clip survivors and to apply a sort permutation.
  void AssignGather(const RectBatch& src, std::span<const uint32_t> ids) {
    AssignGather(src.view(), ids);
  }

  /// Gather overload reading from a SoA view (e.g. a cached tree node).
  void AssignGather(const RectSoAView& src, std::span<const uint32_t> ids) {
    Resize(ids.size());
    for (size_t k = 0; k < ids.size(); ++k) {
      const size_t i = ids[k];
      xl_[k] = src.xl[i];
      yl_[k] = src.yl[i];
      xu_[k] = src.xu[i];
      yu_[k] = src.yu[i];
    }
  }

 private:
  // Sizes the planes for `n` rectangles, which the caller then writes to
  // lanes [0, n), and puts sentinels in every lane past n.
  void Resize(size_t n) {
    const size_t old_size = size_;
    const size_t old_padded = xl_.size();
    size_ = n;
    // One extra block past the logical end keeps full-block reads in bounds
    // from any start index <= n.
    const size_t padded = ((n / kBlock) + 2) * kBlock;
    xl_.resize(padded);
    yl_.resize(padded);
    xu_.resize(padded);
    yu_.resize(padded);
    // Lanes [old_size, old_padded) still hold sentinels, so only lanes that
    // held rectangles, and lanes the resize added, need them.
    FillSentinels(n, std::min(old_size, padded));
    FillSentinels(std::max(n, old_padded), padded);
  }

  void FillSentinels(size_t begin, size_t end) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (size_t i = begin; i < end; ++i) {
      xl_[i] = kInf;   // Terminates the sweep x-scan.
      yl_[i] = kInf;   // Fails every y-overlap test.
      xu_[i] = -kInf;  // Fails every clip test.
      yu_[i] = -kInf;
    }
  }

  size_t size_ = 0;
  std::vector<double> xl_;
  std::vector<double> yl_;
  std::vector<double> xu_;
  std::vector<double> yu_;
};

/// The SIMD instruction set the batch kernels were compiled for ("avx512",
/// "avx2", "avx", "sse2", or "scalar"). Reported from the kernel translation
/// unit, which is the one PSJ_ENABLE_NATIVE_ARCH affects.
const char* RectBatchSimdLevel();

/// Appends to `*out_ids` (after clearing it) the indices, ascending, of the
/// rectangles in `batch` intersecting `clip` (closed boundaries, like
/// Rect::Intersects), never an index >= batch.size(). The search-space
/// restriction kernel of the AoS path.
void FilterIntersecting(const RectBatch& batch, const Rect& clip,
                        std::vector<uint32_t>* out_ids);

/// Index of the first rectangle in `batch` intersecting `query`, or
/// RectBatch::npos. Used by the second filter's early-out screen.
size_t FirstIntersecting(const RectBatch& batch, const Rect& query);

/// \brief The plane-sweep forward scan as a batch kernel.
///
/// `batch` must be sorted ascending by xl. Starting at `lo`, scans while
/// xl[l] <= anchor_xu (the sweep's run), y-testing every rectangle in the
/// run and appending the indices that overlap [anchor_yl, anchor_yu] to
/// `*hits` (not cleared) in ascending order — exactly the emission order of
/// the scalar scan. Returns the number of y-tests performed, i.e. the run
/// length, for exact CPU-cost accounting.
size_t CountAndEmitYOverlaps(const RectBatch& batch, size_t lo,
                             double anchor_xu, double anchor_yl,
                             double anchor_yu, std::vector<uint32_t>* hits);

/// An integer image of an xl key that orders as SortedOrderByXl does:
/// ascending doubles map to ascending integers, -0.0 and +0.0 to the same
/// one, and every NaN to the largest, after +inf. So (key, index) pairs
/// compare lexicographically in sweep order, ties by index — a strict weak
/// order for every double, which std::sort needs: a sealed node may hold a
/// NaN coordinate, since bulk and page-file loads do not validate rects.
uint64_t XlSortKey(double xl);

/// Batched SortedOrderByXl: fills `*order` with the permutation sorting
/// `batch` ascending by xl, NaN keys last, ties by index (the scalar
/// tie-break; -0.0 and +0.0 tie). The sort runs over packed (integer key,
/// index) pairs in `*key_scratch` so comparisons never chase the AoS
/// layout.
void SortedOrderByXl(const RectBatch& batch, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch);

/// View overload of SortedOrderByXl: same permutation and tie-break over a
/// SoA view's xl plane.
void SortedOrderByXl(const RectSoAView& view, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch);

/// \brief The full plane-sweep join over two x-sorted batches as one fused
/// kernel call.
///
/// Fills `*pairs` (after clearing it) with (i, j) index pairs — i into `r`,
/// j into `s` — in exactly the local plane-sweep order of the scalar
/// PlaneSweepJoinSortedScalar: the virtual-time simulation depends on this
/// order being bit-identical. Returns the exact number of y-tests performed
/// across all forward scans. Fusing the outer sweep loop with the scan
/// kernel keeps the whole join inside one translation unit, so there is no
/// per-anchor call overhead.
size_t SweepCollectPairs(const RectBatch& r, const RectBatch& s,
                         std::vector<std::pair<uint32_t, uint32_t>>* pairs);

/// \brief Plane-sweep join over two x-sorted batches, delivered through a
/// callback.
///
/// Emits (i, j) — indices into `r` and `s` — via `emit`, in exactly the
/// local plane-sweep order of the scalar PlaneSweepJoinSortedScalar.
/// `*pairs` is scratch for the fused kernel. Returns the exact number of
/// y-tests performed across all scans.
template <typename Callback>
size_t PlaneSweepBatchSorted(const RectBatch& r, const RectBatch& s,
                             std::vector<std::pair<uint32_t, uint32_t>>* pairs,
                             Callback&& emit) {
  const size_t tests = SweepCollectPairs(r, s, pairs);
  for (const auto& [i, j] : *pairs) {
    emit(static_cast<size_t>(i), static_cast<size_t>(j));
  }
  return tests;
}

/// Reusable buffers for the full batched filter-step pipeline (restriction →
/// sort → sweep, or restriction in x-order → sweep for BatchSweepJoinViews).
/// Keep one per joiner and pass it to every call to avoid the per-node-pair
/// vector allocations of the scalar path.
struct SweepScratch {
  RectBatch raw_r;     // Caller-loaded inputs.
  RectBatch raw_s;
  RectBatch kept_r;    // Clip survivors, original order.
  RectBatch kept_s;
  RectBatch sorted_r;  // Survivors in sweep (xl) order.
  RectBatch sorted_s;
  std::vector<uint32_t> ids_r;    // Survivor position -> original index
  std::vector<uint32_t> ids_s;    // (in sweep order on the x-order path).
  std::vector<uint32_t> order_r;  // Sweep position -> survivor position.
  std::vector<uint32_t> order_s;
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  std::vector<uint32_t> hits;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

/// \brief Restriction + sort + sweep over `scratch.raw_r` / `scratch.raw_s`
/// (which the caller must load first).
///
/// With `clip` non-null, rectangles not intersecting it are dropped before
/// sorting (the paper's search-space restriction); `scratch.ids_r.size()` /
/// `ids_s.size()` afterwards give the survivor counts. Emits pairs of
/// indices into the *raw* inputs in local plane-sweep order, bit-identical
/// to the scalar restricted sweep. Returns the exact y-test count.
template <typename Callback>
size_t BatchSweepJoin(SweepScratch& scratch, const Rect* clip,
                      Callback&& emit) {
  const RectBatch* kept_r = &scratch.raw_r;
  const RectBatch* kept_s = &scratch.raw_s;
  if (clip != nullptr) {
    FilterIntersecting(scratch.raw_r, *clip, &scratch.ids_r);
    FilterIntersecting(scratch.raw_s, *clip, &scratch.ids_s);
    scratch.kept_r.AssignGather(scratch.raw_r, scratch.ids_r);
    scratch.kept_s.AssignGather(scratch.raw_s, scratch.ids_s);
    kept_r = &scratch.kept_r;
    kept_s = &scratch.kept_s;
  } else {
    scratch.ids_r.resize(scratch.raw_r.size());
    scratch.ids_s.resize(scratch.raw_s.size());
    std::iota(scratch.ids_r.begin(), scratch.ids_r.end(), 0u);
    std::iota(scratch.ids_s.begin(), scratch.ids_s.end(), 0u);
  }
  SortedOrderByXl(*kept_r, &scratch.order_r, &scratch.keys);
  SortedOrderByXl(*kept_s, &scratch.order_s, &scratch.keys);
  scratch.sorted_r.AssignGather(*kept_r, scratch.order_r);
  scratch.sorted_s.AssignGather(*kept_s, scratch.order_s);
  return PlaneSweepBatchSorted(
      scratch.sorted_r, scratch.sorted_s, &scratch.pairs,
      [&](size_t i, size_t j) {
        emit(scratch.ids_r[scratch.order_r[i]],
             scratch.ids_s[scratch.order_s[j]]);
      });
}

}  // namespace psj

#endif  // PSJ_GEO_RECT_BATCH_H_
