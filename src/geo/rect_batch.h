#ifndef PSJ_GEO_RECT_BATCH_H_
#define PSJ_GEO_RECT_BATCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "geo/rect.h"

namespace psj {

/// The lanes of every RectBatch and every sealed tree node that hold `n`
/// rectangles: whole 4-lane blocks, the AVX2 scan's width, with at least
/// one sentinel lane past the last rectangle.
constexpr size_t PaddedLanes(size_t n) { return (n / 4 + 1) * 4; }

/// \brief Non-owning view over four SoA coordinate planes following the
/// RectBatch conventions.
///
/// Each plane holds `padded` = PaddedLanes(size) readable lanes, and every
/// lane in [size, padded) holds sentinel coordinates (xl = +inf,
/// yl = +inf, xu = -inf, yu = -inf). Views are produced by
/// RectBatch::view() and by the per-tree SoA node cache (rtree/node_soa.h).
struct RectSoAView {
  const double* xl = nullptr;
  const double* yl = nullptr;
  const double* xu = nullptr;
  const double* yu = nullptr;
  size_t size = 0;
  /// Readable lanes, PaddedLanes(size). A kernel may read the 4 lanes from
  /// any multiple of 4 below `size`, and lane `size` itself, which the
  /// SSE2 sweep's last window reads; nothing else past `size`.
  size_t padded = 0;

  bool empty() const { return size == 0; }
  Rect rect(size_t i) const { return Rect(xl[i], yl[i], xu[i], yu[i]); }
};

/// \brief Structure-of-arrays rectangle container for the filter-step hot
/// path.
///
/// The four corner coordinates live in separate contiguous arrays so the
/// filter-step kernels (the intra-node scan of geo/node_scan.h, the
/// plane-sweep forward scan) compare whole SIMD vectors without branches.
/// Every array holds PaddedLanes(size()) lanes, those past `size()` filled
/// with *sentinel* coordinates (xl = +inf, xu = -inf, yl = +inf,
/// yu = -inf), so kernels read what RectSoAView::padded allows without
/// bounds checks: a sentinel lane never passes an intersection predicate
/// and always terminates the sweep's x-scan.
class RectBatch {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of lanes, PaddedLanes(size()).
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

  /// Loads `src[ids[k]]` for k = 0..ids.size()-1 (a gather) from a SoA view
  /// (a cached tree node, or another batch's view()); used to compact clip
  /// survivors and to apply a sort permutation.
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
    const size_t padded = PaddedLanes(n);
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

/// The instruction set the sweep kernel runs on: "sse2" on x86-64, whose
/// baseline includes SSE2, and "scalar" elsewhere. Compare NodeScanIsa()
/// (geo/node_scan.h), which the intra-node scan picks at run time.
const char* RectBatchSimdLevel();

/// An integer image of an xl key that orders as SortedOrderByXl does:
/// ascending doubles map to ascending integers, -0.0 and +0.0 to the same
/// one, and every NaN to the largest, after +inf. So (key, index) pairs
/// compare lexicographically in sweep order, ties by index — a strict weak
/// order for every double, which std::sort needs: a sealed node may hold a
/// NaN coordinate, since bulk and page-file loads do not validate rects.
uint64_t XlSortKey(double xl);

/// Fills `*order` with the permutation sorting `view` ascending by xl, NaN
/// keys last, ties by index (the scalar tie-break; -0.0 and +0.0 tie). The
/// sort runs over packed (integer key, index) pairs in `*key_scratch` so
/// comparisons never chase the AoS layout.
void SortedOrderByXl(const RectSoAView& view, std::vector<uint32_t>* order,
                     std::vector<std::pair<uint64_t, uint32_t>>* key_scratch);

/// \brief The full plane-sweep join over two x-sorted views as one fused
/// kernel call.
///
/// Fills `*pairs` (after clearing it) with (i, j) index pairs — i into `r`,
/// j into `s` — in exactly the local plane-sweep order of the scalar
/// PlaneSweepJoinSortedScalar: the virtual-time simulation depends on this
/// order being bit-identical. Returns the exact number of y-tests performed
/// across all forward scans. Fusing the outer sweep loop with the scan
/// kernel keeps the whole join inside one translation unit, so there is no
/// per-anchor call overhead.
size_t SweepCollectPairs(const RectSoAView& r, const RectSoAView& s,
                         std::vector<std::pair<uint32_t, uint32_t>>* pairs);

/// \brief Plane-sweep join over two x-sorted views, delivered through a
/// callback.
///
/// Emits (i, j) — indices into `r` and `s` — via `emit`, in exactly the
/// local plane-sweep order of the scalar PlaneSweepJoinSortedScalar.
/// `*pairs` is scratch for the fused kernel. Returns the exact number of
/// y-tests performed across all scans.
template <typename Callback>
size_t PlaneSweepBatchSorted(const RectSoAView& r, const RectSoAView& s,
                             std::vector<std::pair<uint32_t, uint32_t>>* pairs,
                             Callback&& emit) {
  const size_t tests = SweepCollectPairs(r, s, pairs);
  for (const auto& [i, j] : *pairs) {
    emit(static_cast<size_t>(i), static_cast<size_t>(j));
  }
  return tests;
}

/// Reusable buffers for the batched filter step: sort → sweep
/// (BatchSweepJoin), restriction in x-order → sweep (BatchSweepJoinViews),
/// and the nested-loop ablation of node matching. Keep one per joiner and
/// pass it to every call to avoid per-node-pair vector allocations.
struct SweepScratch {
  RectBatch raw_r;     // Caller-loaded inputs of BatchSweepJoin.
  RectBatch raw_s;
  RectBatch kept_r;    // Clip survivors of the nested-loop ablation.
  RectBatch kept_s;
  RectBatch sorted_r;  // Inputs or survivors in sweep (xl) order.
  RectBatch sorted_s;
  std::vector<uint32_t> ids_r;    // Survivor position -> view index
  std::vector<uint32_t> ids_s;    // (in sweep order on the x-order path).
  std::vector<uint32_t> order_r;  // Sweep position -> input index.
  std::vector<uint32_t> order_s;
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  std::vector<uint32_t> hits;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

/// \brief Sort + sweep over `scratch.raw_r` / `scratch.raw_s` (which the
/// caller must load first): the partition join's per-tile filter step.
///
/// Emits pairs of indices into the raw inputs in local plane-sweep order,
/// bit-identical to sorting both sides with SortedOrderByXl and running
/// PlaneSweepJoinSortedScalar. Returns the exact y-test count.
template <typename Callback>
size_t BatchSweepJoin(SweepScratch& scratch, Callback&& emit) {
  SortedOrderByXl(scratch.raw_r.view(), &scratch.order_r, &scratch.keys);
  SortedOrderByXl(scratch.raw_s.view(), &scratch.order_s, &scratch.keys);
  scratch.sorted_r.AssignGather(scratch.raw_r.view(), scratch.order_r);
  scratch.sorted_s.AssignGather(scratch.raw_s.view(), scratch.order_s);
  return PlaneSweepBatchSorted(
      scratch.sorted_r.view(), scratch.sorted_s.view(), &scratch.pairs,
      [&](size_t i, size_t j) {
        emit(scratch.order_r[i], scratch.order_s[j]);
      });
}

}  // namespace psj

#endif  // PSJ_GEO_RECT_BATCH_H_
