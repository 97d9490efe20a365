#include "join/node_match.h"

#include "geo/node_scan.h"
#include "geo/rect_batch.h"

namespace psj {

std::vector<std::pair<uint32_t, uint32_t>> MatchNodeEntriesSoA(
    const NodeSoAView& node_r, const NodeSoAView& node_s,
    const NodeMatchOptions& options, NodeMatchCounts* counts,
    NodeMatchScratch* scratch) {
  thread_local NodeMatchScratch shared_scratch;
  NodeMatchScratch& sc = scratch != nullptr ? *scratch : shared_scratch;
  std::vector<std::pair<uint32_t, uint32_t>> result;
  NodeMatchCounts local_counts;

  Rect clip;
  if (options.use_search_space_restriction) {
    clip = node_r.mbr.Intersection(node_s.mbr);
    if (!clip.IsValid()) {
      if (counts != nullptr) *counts = local_counts;
      return result;
    }
  }
  const Rect* clip_ptr =
      options.use_search_space_restriction ? &clip : nullptr;

  if (options.use_plane_sweep) {
    local_counts.pairs_tested = BatchSweepJoinViews(
        sc, node_r.rects, node_r.x_order, node_s.rects, node_s.x_order,
        clip_ptr, [&](size_t i, size_t j) {
          result.emplace_back(static_cast<uint32_t>(i),
                              static_cast<uint32_t>(j));
        });
    local_counts.entries_considered_r = sc.ids_r.size();
    local_counts.entries_considered_s = sc.ids_s.size();
  } else {
    // Nested-loop ablation baseline: every restricted pair is tested. The
    // restricted sets land in the kept batches (full plane copies when
    // unclipped), and the inner loop is the intra-node scan with the outer
    // rectangle as the query.
    if (clip_ptr != nullptr) {
      ScanIntersecting(node_r.rects, clip, &sc.ids_r);
      ScanIntersecting(node_s.rects, clip, &sc.ids_s);
      sc.kept_r.AssignGather(node_r.rects, sc.ids_r);
      sc.kept_s.AssignGather(node_s.rects, sc.ids_s);
    } else {
      sc.kept_r.Assign(node_r.rects);
      sc.kept_s.Assign(node_s.rects);
    }
    const size_t nr = sc.kept_r.size();
    const size_t ns = sc.kept_s.size();
    for (size_t i = 0; i < nr; ++i) {
      ScanIntersecting(sc.kept_s.view(), sc.kept_r.rect(i), &sc.hits);
      const uint32_t orig_i = clip_ptr != nullptr
                                  ? sc.ids_r[i]
                                  : static_cast<uint32_t>(i);
      for (const uint32_t j : sc.hits) {
        result.emplace_back(orig_i,
                            clip_ptr != nullptr ? sc.ids_s[j] : j);
      }
    }
    local_counts.entries_considered_r = nr;
    local_counts.entries_considered_s = ns;
    local_counts.pairs_tested = nr * ns;
  }
  if (counts != nullptr) *counts = local_counts;
  return result;
}

std::vector<std::pair<uint32_t, uint32_t>> MatchNodePages(
    const RStarTree& tree_r, uint32_t page_r, const RStarTree& tree_s,
    uint32_t page_s, const NodeMatchOptions& options, NodeMatchCounts* counts,
    NodeMatchScratch* scratch) {
  return MatchNodeEntriesSoA(tree_r.sealed().view(page_r),
                             tree_s.sealed().view(page_s), options, counts,
                             scratch);
}

}  // namespace psj
