#ifndef PSJ_GEO_NODE_SCAN_H_
#define PSJ_GEO_NODE_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/rect.h"
#include "geo/rect_batch.h"

namespace psj {

/// \brief Branchless intra-node MBR scan kernels over SoA views.
///
/// Unlike the rect_batch.cc kernels — compiled once for whatever ISA the
/// translation unit targets — these dispatch at runtime between scalar,
/// SSE2 and AVX2 variants, so a baseline build still runs the wide scan on
/// hardware that has it. All variants emit bit-identical results in
/// ascending index order (the contract every golden baseline and
/// perturbation gate depends on); the variant entry points exist so the
/// micro benchmarks and property tests can pin each one down.

/// The instruction set ScanIntersecting dispatches to on this machine
/// ("avx2", "sse2", or "scalar"). This is detected from the CPU, not the
/// compile flags; compare RectBatchSimdLevel(), which reports what the
/// rect_batch kernels were *compiled* for.
const char* NodeScanIsa();

/// Appends to `*out_ids` (after clearing it) the indices, ascending, of the
/// view's rectangles intersecting `query` (closed boundaries, like
/// Rect::Intersects) — the same results FilterIntersecting produces over a
/// batch holding the same rectangles.
void ScanIntersecting(const RectSoAView& node, const Rect& query,
                      std::vector<uint32_t>* out_ids);

/// Forced-variant entry points for the benchmarks/tests. The SSE2/AVX2
/// variants must only be called when the matching NodeScanHas*() is true.
bool NodeScanHasSse2();
bool NodeScanHasAvx2();
void ScanIntersectingScalar(const RectSoAView& node, const Rect& query,
                            std::vector<uint32_t>* out_ids);
void ScanIntersectingSse2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids);
void ScanIntersectingAvx2(const RectSoAView& node, const Rect& query,
                          std::vector<uint32_t>* out_ids);

/// Fills `*out_ids` (after clearing it) with the view's indices in the
/// order `x_order` lists them, keeping only the rectangles that intersect
/// `*clip` (closed boundaries, as ScanIntersecting), or all of them when
/// `clip` is null. `x_order` must be a permutation of [0, view.size) in
/// (xl, index) order, NaN keys last, e.g. NodeSoAView::x_order. The walk
/// stops at the first xl past the clip and keeps entries without a branch.
void SelectInXOrder(const RectSoAView& view, const uint8_t* x_order,
                    const Rect* clip, std::vector<uint32_t>* out_ids);

/// \brief BatchSweepJoin over two SoA views that carry their x-orders
/// (e.g. cached tree nodes, rtree/node_soa.h).
///
/// Each side's survivors — the rectangles intersecting `clip`, or all of
/// them with `clip` null — are taken in x-order (SelectInXOrder) and
/// gathered once. Entries taken in order from a sequence sorted by
/// (xl, index) stay sorted by (xl, index), which is the order
/// SortedOrderByXl gives the survivors in BatchSweepJoin; so the sweep sees
/// the same batches, with no per-call sort, and emits the same pairs in the
/// same order with the same y-test count. `scratch.ids_r` / `ids_s`
/// afterwards hold the survivors' view indices in sweep order; their sizes
/// are the survivor counts. Returns the exact y-test count.
template <typename Callback>
size_t BatchSweepJoinViews(SweepScratch& scratch, const RectSoAView& r,
                           const uint8_t* r_x_order, const RectSoAView& s,
                           const uint8_t* s_x_order, const Rect* clip,
                           Callback&& emit) {
  SelectInXOrder(r, r_x_order, clip, &scratch.ids_r);
  SelectInXOrder(s, s_x_order, clip, &scratch.ids_s);
  scratch.sorted_r.AssignGather(r, scratch.ids_r);
  scratch.sorted_s.AssignGather(s, scratch.ids_s);
  return PlaneSweepBatchSorted(
      scratch.sorted_r, scratch.sorted_s, &scratch.pairs,
      [&](size_t i, size_t j) { emit(scratch.ids_r[i], scratch.ids_s[j]); });
}

}  // namespace psj

#endif  // PSJ_GEO_NODE_SCAN_H_
