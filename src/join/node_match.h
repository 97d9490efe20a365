#ifndef PSJ_JOIN_NODE_MATCH_H_
#define PSJ_JOIN_NODE_MATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "geo/rect_batch.h"
#include "rtree/node_soa.h"
#include "rtree/rstar_tree.h"

namespace psj {

/// Options for the per-node-pair matching step (the CPU tuning techniques of
/// §2.2, exposed individually for ablation benchmarks).
struct NodeMatchOptions {
  /// Technique (i): restrict both entry sets to those intersecting the
  /// intersection of the two node MBRs before matching.
  bool use_search_space_restriction = true;
  /// Technique (ii): sort by xl and plane-sweep; otherwise nested loops.
  bool use_plane_sweep = true;
};

/// CPU-work counters of one matching step, used to charge virtual time.
struct NodeMatchCounts {
  size_t entries_considered_r = 0;  // After the restriction.
  size_t entries_considered_s = 0;
  /// Rectangle comparisons performed: the exact number of y-extent tests of
  /// the sweep's forward scans (plane-sweep mode), or |r|·|s| full
  /// intersection tests (nested-loop mode), over the restricted entry sets.
  size_t pairs_tested = 0;
};

/// Reusable buffers for MatchNodeEntriesSoA; keep one per joiner and pass it
/// to every call so the matching step performs no per-node-pair allocations.
using NodeMatchScratch = SweepScratch;

/// \brief Computes all pairs (index into `node_r`, index into `node_s`) of
/// intersecting entries of two sealed node images (rtree/node_soa.h).
///
/// With plane-sweep enabled the pairs come out in *local plane-sweep order*
/// (§2.2), which determines the page read order that preserves spatial
/// locality: the entries are restricted to the intersection of the two
/// node MBRs, sorted by (xl, index) with NaN keys last, and swept, where
/// the restriction walks each view's x-order and hands the sweep its
/// survivors already sorted (BatchSweepJoinViews), so no call sorts. With
/// nested loops the pairs come out in entry order. Both modes produce the
/// same set of pairs. `scratch`, when non-null, supplies the working
/// buffers (a shared thread-local is used otherwise).
std::vector<std::pair<uint32_t, uint32_t>> MatchNodeEntriesSoA(
    const NodeSoAView& node_r, const NodeSoAView& node_s,
    const NodeMatchOptions& options = NodeMatchOptions(),
    NodeMatchCounts* counts = nullptr, NodeMatchScratch* scratch = nullptr);

/// MatchNodeEntriesSoA on page `page_r` of `tree_r` and page `page_s` of
/// `tree_s`; both trees must be sealed (RStarTree::sealed() aborts
/// otherwise).
std::vector<std::pair<uint32_t, uint32_t>> MatchNodePages(
    const RStarTree& tree_r, uint32_t page_r, const RStarTree& tree_s,
    uint32_t page_s, const NodeMatchOptions& options = NodeMatchOptions(),
    NodeMatchCounts* counts = nullptr, NodeMatchScratch* scratch = nullptr);

}  // namespace psj

#endif  // PSJ_JOIN_NODE_MATCH_H_
