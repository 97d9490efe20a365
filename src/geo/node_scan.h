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
/// The scan dispatches at run time between scalar, SSE2 and AVX2 variants,
/// and the overlap-enlargement kernel between scalar and AVX2 ones, so a
/// baseline build still runs the wide kernels on hardware that has them;
/// src/geo's wider-than-baseline kernels are compiled per function with
/// __attribute__((target(...))), never by a build flag. All variants emit
/// bit-identical results (the scan in ascending index order: the contract
/// every golden baseline and perturbation gate depends on); the variant
/// entry points exist so the micro benchmarks and property tests can pin
/// each one down.

/// The instruction set ScanIntersecting dispatches to on this machine
/// ("avx2", "sse2", or "scalar"). This is detected from the CPU, not the
/// compile flags; compare RectBatchSimdLevel(), the sweep's baseline ISA.
const char* NodeScanIsa();

/// Appends to `*out_ids` (after clearing it) the indices, ascending, of the
/// view's rectangles intersecting `query` (closed boundaries, like
/// Rect::Intersects), never an index >= node.size — not even for the
/// whole-plane query, which the padding sentinels satisfy.
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

/// \brief The overlap enlargements of R* ChooseSubtree rule CS2 for every
/// rectangle of a node at once.
///
/// Fills `*out` (resized to node.size) with out[c] = after_c - before_c.
/// Here before_c is the sum over j != c, in ascending j, of
/// node.rect(c).IntersectionArea(node.rect(j)), and after_c the same sum
/// with E_c = node.rect(c).UnionWith(rect) in place of node.rect(c). Every
/// variant returns exactly these doubles for any non-NaN coordinates,
/// infinities included (DESIGN.md §12, "Exact ChooseSubtree"). The scalar
/// variant scans into `scratch_ids`.
void OverlapEnlargements(const RectSoAView& node, const Rect& rect,
                         std::vector<uint32_t>* scratch_ids,
                         std::vector<double>* out);

/// out[c] of OverlapEnlargements for the one candidate `c` < node.size:
/// ScanIntersecting with E_c, then both sums over the siblings it reports.
/// Every other sibling adds +0.0 to both sums, which leaves them unchanged.
double OverlapEnlargement(const RectSoAView& node, size_t c, const Rect& rect,
                          std::vector<uint32_t>* scratch_ids);

/// Forced variants: the scalar one runs OverlapEnlargement per candidate;
/// the AVX2 one, which must only be called when NodeScanHasAvx2() is true,
/// carries four candidates per vector over every sibling.
void OverlapEnlargementsScalar(const RectSoAView& node, const Rect& rect,
                               std::vector<uint32_t>* scratch_ids,
                               std::vector<double>* out);
void OverlapEnlargementsAvx2(const RectSoAView& node, const Rect& rect,
                             std::vector<uint32_t>* scratch_ids,
                             std::vector<double>* out);

/// Fills `*out_ids` (after clearing it) with the view's indices in the
/// order `x_order` lists them, keeping only the rectangles that intersect
/// `*clip` (closed boundaries, as ScanIntersecting), or all of them when
/// `clip` is null. `x_order` must be a permutation of [0, view.size) in
/// (xl, index) order, NaN keys last, e.g. NodeSoAView::x_order. The walk
/// stops at the first xl past the clip and keeps entries without a branch.
void SelectInXOrder(const RectSoAView& view, const uint8_t* x_order,
                    const Rect* clip, std::vector<uint32_t>* out_ids);

/// \brief The restricted plane sweep (§2.2) over two SoA views that carry
/// their x-orders (e.g. cached tree nodes, rtree/node_soa.h).
///
/// Each side's survivors — the rectangles intersecting `clip`, or all of
/// them with `clip` null — are taken in x-order (SelectInXOrder) and
/// gathered once. Entries taken in order from a sequence sorted by
/// (xl, index) stay sorted by (xl, index), which is the order
/// SortedOrderByXl gives the survivors of a restriction in entry order; so
/// the sweep sees the same batches as restrict → sort → sweep, with no
/// per-call sort, and emits the same pairs in the same order with the same
/// y-test count. `scratch.ids_r` / `ids_s`
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
      scratch.sorted_r.view(), scratch.sorted_s.view(), &scratch.pairs,
      [&](size_t i, size_t j) { emit(scratch.ids_r[i], scratch.ids_s[j]); });
}

}  // namespace psj

#endif  // PSJ_GEO_NODE_SCAN_H_
