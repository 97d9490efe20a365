#ifndef PSJ_JOIN_SECOND_FILTER_H_
#define PSJ_JOIN_SECOND_FILTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/map_object.h"
#include "geo/rect.h"

namespace psj {

/// Splits a polyline into up to `max_sections` contiguous runs of segments
/// (consecutive runs share their boundary vertex) and returns one MBR per
/// run — a finer conservative approximation than the single MBR.
std::vector<Rect> ComputeSectionMbrs(PolylineView line, int max_sections);

/// \brief The *second filter step* of multi-step spatial join processing
/// ([BKSS 94] / [BKS 94], referenced in the paper's §2.1): before paying
/// the expensive exact-geometry test, candidates are screened with per-
/// object section MBRs.
///
/// If no section MBR of one object intersects any section MBR of the other,
/// the exact geometries cannot intersect and the candidate is a false hit —
/// identified at a tiny CPU cost. The test is conservative: it never
/// discards an answer.
class SecondFilter {
 public:
  /// Precomputes section MBRs for every object of `store` (in the paper's
  /// storage scheme such approximations live with the exact geometry in the
  /// clusters, so their I/O is already covered by the data-page access).
  SecondFilter(const ObjectStore& store, int max_sections);

  int max_sections() const { return max_sections_; }

  std::span<const Rect> sections(uint64_t oid) const {
    return std::span<const Rect>(sections_.data() + offsets_[oid],
                                 offsets_[oid + 1] - offsets_[oid]);
  }

  /// True unless the section approximations prove the two objects cannot
  /// intersect. `tests_performed`, when non-null, receives the number of
  /// section-pair rectangle tests (for CPU accounting).
  static bool CanIntersect(std::span<const Rect> a, std::span<const Rect> b,
                           size_t* tests_performed = nullptr);

 private:
  int max_sections_;
  /// Every object's section MBRs in one array, in object-id order: object
  /// i's are sections_[offsets_[i], offsets_[i + 1]).
  std::vector<Rect> sections_;
  std::vector<uint32_t> offsets_;
};

}  // namespace psj

#endif  // PSJ_JOIN_SECOND_FILTER_H_
