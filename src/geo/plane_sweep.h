#ifndef PSJ_GEO_PLANE_SWEEP_H_
#define PSJ_GEO_PLANE_SWEEP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "geo/rect.h"

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
/// This is the ground truth the batched sweep (SweepCollectPairs,
/// geo/rect_batch.h) must reproduce bit-identically (same pairs, same
/// order); it also serves as the baseline side of bench/micro_kernels.
/// `y_tests`, when non-null, receives the exact number of y-extent tests
/// performed. No dynamic sweep structure is needed, matching the paper.
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
