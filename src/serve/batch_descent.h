#ifndef PSJ_SERVE_BATCH_DESCENT_H_
#define PSJ_SERVE_BATCH_DESCENT_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "geo/rect.h"
#include "rtree/rstar_tree.h"

namespace psj::serve {

/// Wall-clock source of the descent's deadline checks, in microseconds on
/// an arbitrary epoch. Null disables deadline checking entirely; tests
/// inject counters here to make expiry deterministic.
using NowMicrosFn = std::function<int64_t()>;

/// Execution counters of one (batched or single) descent, summed into the
/// service-wide stats.
struct DescentStats {
  int64_t nodes_visited = 0;   // Work items processed (node, query subset).
  int64_t node_scans = 0;      // Intra-node kernel invocations.
  int64_t entry_tests = 0;     // Exact y-test / lane-test count.
  int64_t pairs_grouped = 0;   // (entry, query) pairs routed to children.

  DescentStats& operator+=(const DescentStats& other) {
    nodes_visited += other.nodes_visited;
    node_scans += other.node_scans;
    entry_tests += other.entry_tests;
    pairs_grouped += other.pairs_grouped;
    return *this;
  }
};

/// \brief Per-query output of a batched window descent. `ids[q]` holds the
/// object ids intersecting `windows[q]`; `complete[q]` is false when query
/// q's deadline expired mid-descent (its ids are then a partial subset of
/// the full answer).
struct BatchWindowOutput {
  std::vector<std::vector<uint64_t>> ids;
  std::vector<bool> complete;
};

/// \brief One shared traversal answering a whole batch of window queries
/// over a sealed tree (RStarTree::sealed() aborts otherwise).
///
/// The descent keeps a frontier of (node, query subset) items starting at
/// (root, all queries). Each visited node is scanned ONCE against its
/// subset's SoA rectangle set: the subset's windows are gathered into
/// RectBatch planes and the branchless geo/node_scan.h kernel runs
/// transposed, one ScanIntersecting over the subset per node entry —
/// per-entry query groups fall out directly, routing object ids into
/// per-query results at leaves and splitting the subset over child nodes
/// above them (each child pushed once, with the queries that reach it). So
/// the upper levels of the tree, which every query of a batch touches, are
/// descended once per batch instead of once per query. Subsets of size one
/// fall back to the single-query ScanIntersecting path, making a batch of
/// one bit-equivalent (as a set) to RStarTree::WindowQuery.
///
/// `deadline_micros[q]`, when the span is non-empty, is query q's absolute
/// deadline on `now_micros`'s epoch (negative = none). Expiry is checked at
/// node-visit granularity: before a subset is scanned, queries whose
/// deadline has passed (now >= deadline) are dropped from the frontier and
/// marked complete = false. With `now_micros` null no deadlines apply.
///
/// Result sets per query equal RStarTree::WindowQuery(windows[q]) exactly
/// (as sets; emission order differs) whenever the query ran to completion.
void BatchWindowQueries(const RStarTree& tree, std::span<const Rect> windows,
                        std::span<const int64_t> deadline_micros,
                        const NowMicrosFn& now_micros, BatchWindowOutput* out,
                        DescentStats* stats = nullptr);

/// \brief Join-region result: the filter-step candidate pairs whose MBR
/// intersection meets the region.
struct RegionJoinOutput {
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  bool complete = true;
};

/// True iff a, b and region share a common point (all three closed
/// rectangles overlap) — the membership predicate of the region join.
bool TripleIntersects(const Rect& a, const Rect& b, const Rect& region);

/// \brief The pairwise-join region query: every candidate pair (id in
/// tree_r, id in tree_s) with TripleIntersects(rect_r, rect_s, region),
/// i.e. the [BKS 93] filter-step join restricted to a viewport.
///
/// Synchronized dual-tree descent as the sequential join (height mismatch
/// descends the deeper tree), pruning node pairs whose MBR intersection
/// misses the region, with the per-node-pair sweep restricted to
/// clip = mbr_r ∩ mbr_s ∩ region — sound for this predicate because a
/// qualifying pair's common point lies in all three — and an exact
/// triple-intersection post-filter on emitted pairs. Both trees must be
/// sealed. Deadline semantics as BatchWindowQueries (checked per node-pair
/// visit; `deadline_micros` < 0 = none).
void RegionJoinQuery(const RStarTree& tree_r, const RStarTree& tree_s,
                     const Rect& region, int64_t deadline_micros,
                     const NowMicrosFn& now_micros, RegionJoinOutput* out,
                     DescentStats* stats = nullptr);

}  // namespace psj::serve

#endif  // PSJ_SERVE_BATCH_DESCENT_H_
