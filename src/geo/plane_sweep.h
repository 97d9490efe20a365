#ifndef PSJ_GEO_PLANE_SWEEP_H_
#define PSJ_GEO_PLANE_SWEEP_H_

#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "geo/rect.h"
#include "geo/rect_batch.h"

namespace psj {

/// Returns the permutation that sorts `rects` ascending by xl (ties broken
/// by index for determinism, NaN keys last). This is the sort order
/// required by the plane-sweep join of §2.2.
std::vector<uint32_t> SortedOrderByXl(std::span<const Rect> rects);

/// True iff `rects` is sorted ascending by xl.
bool IsSortedByXl(std::span<const Rect> rects);

/// \brief Scalar reference implementation of the plane-sweep rectangle
/// intersection join over two x-sorted sequences (the paper's §2.2
/// algorithm, after [BKS 93]).
///
/// Both sequences must be sorted ascending by xl. The sweep-line moves over
/// the union of the sequences in xl order; for each anchor rectangle the
/// other sequence is scanned forward while xl <= anchor.xu, testing only the
/// y-extents (x-overlap is implied by the sweep order). Each intersecting
/// pair (i, j) — indices into `r` and `s` — is emitted exactly once, in
/// **local plane-sweep order**: the order that preserves spatial locality
/// and determines the order in which pages are read from disk.
///
/// This is the ground truth the batched kernels must reproduce
/// bit-identically (same pairs, same order); it also serves as the baseline
/// side of bench/micro_kernels. `y_tests`, when non-null, receives the exact
/// number of y-extent tests performed. No dynamic sweep structure is needed,
/// matching the paper.
template <typename Callback>
void PlaneSweepJoinSortedScalar(std::span<const Rect> r,
                                std::span<const Rect> s, Callback&& emit,
                                size_t* y_tests = nullptr) {
  size_t i = 0;
  size_t j = 0;
  size_t tests = 0;
  while (i < r.size() && j < s.size()) {
    if (r[i].xl <= s[j].xl) {
      // r[i] is the anchor; scan s forward from j.
      const Rect& anchor = r[i];
      for (size_t l = j; l < s.size() && s[l].xl <= anchor.xu; ++l) {
        ++tests;
        if (anchor.yl <= s[l].yu && s[l].yl <= anchor.yu) {
          emit(i, l);
        }
      }
      ++i;
    } else {
      const Rect& anchor = s[j];
      for (size_t l = i; l < r.size() && r[l].xl <= anchor.xu; ++l) {
        ++tests;
        if (anchor.yl <= r[l].yu && r[l].yl <= anchor.yu) {
          emit(l, j);
        }
      }
      ++j;
    }
  }
  if (y_tests != nullptr) *y_tests = tests;
}

/// \brief Plane-sweep join over two x-sorted sequences, batched.
///
/// Semantics are identical to PlaneSweepJoinSortedScalar — same pairs, same
/// emission order, same y-test count — but the forward scan runs on SoA
/// RectBatch kernels (see rect_batch.h), which is the wall-clock hot path.
template <typename Callback>
void PlaneSweepJoinSorted(std::span<const Rect> r, std::span<const Rect> s,
                          Callback&& emit, size_t* y_tests = nullptr) {
  thread_local RectBatch batch_r;
  thread_local RectBatch batch_s;
  thread_local std::vector<std::pair<uint32_t, uint32_t>> pairs;
  batch_r.Assign(r);
  batch_s.Assign(s);
  const size_t tests = PlaneSweepBatchSorted(batch_r, batch_s, &pairs,
                                             [&](size_t i, size_t j) {
                                               emit(i, j);
                                             });
  if (y_tests != nullptr) *y_tests = tests;
}

/// Convenience wrapper over unsorted input: sorts both sides internally
/// (batched) and emits pairs of indices into the *original* sequences, still
/// in local plane-sweep order.
template <typename Callback>
void PlaneSweepJoin(std::span<const Rect> r, std::span<const Rect> s,
                    Callback&& emit) {
  thread_local SweepScratch scratch;
  scratch.raw_r.Assign(r);
  scratch.raw_s.Assign(s);
  BatchSweepJoin(scratch, /*clip=*/nullptr,
                 [&](size_t i, size_t j) { emit(i, j); });
}

/// \brief Plane-sweep join with the paper's *search-space restriction*
/// (tuning technique (i) of §2.2): rectangles that do not intersect `clip`
/// (normally the intersection of the two nodes' MBRs) cannot contribute a
/// result pair and are dropped before sorting — by the batched clip-filter
/// kernel.
///
/// Emits pairs of indices into the original sequences in local plane-sweep
/// order. `considered_r`/`considered_s`, when non-null, receive the number
/// of rectangles that survived the restriction (a CPU-cost statistic).
template <typename Callback>
void RestrictedPlaneSweepJoin(std::span<const Rect> r,
                              std::span<const Rect> s, const Rect& clip,
                              Callback&& emit,
                              size_t* considered_r = nullptr,
                              size_t* considered_s = nullptr) {
  thread_local SweepScratch scratch;
  scratch.raw_r.Assign(r);
  scratch.raw_s.Assign(s);
  BatchSweepJoin(scratch, &clip,
                 [&](size_t i, size_t j) { emit(i, j); });
  if (considered_r != nullptr) *considered_r = scratch.ids_r.size();
  if (considered_s != nullptr) *considered_s = scratch.ids_s.size();
}

/// Reference O(|r|·|s|) nested-loop join; used in tests and as the ablation
/// baseline for the plane-sweep technique.
template <typename Callback>
void BruteForceJoin(std::span<const Rect> r, std::span<const Rect> s,
                    Callback&& emit) {
  for (size_t i = 0; i < r.size(); ++i) {
    for (size_t j = 0; j < s.size(); ++j) {
      if (r[i].Intersects(s[j])) {
        emit(i, j);
      }
    }
  }
}

}  // namespace psj

#endif  // PSJ_GEO_PLANE_SWEEP_H_
