#ifndef PSJ_TESTS_NODE_MATCH_ORACLE_H_
#define PSJ_TESTS_NODE_MATCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geo/plane_sweep.h"
#include "join/node_match.h"
#include "rtree/node.h"
#include "rtree/node_soa.h"

namespace psj {

/// A cache holding `nodes` on pages 1, 2, ... (page 0 is the metadata page,
/// never a node), built as RStarTree::Seal() builds it.
inline NodeSoACache CacheOf(const std::vector<RTreeNode>& nodes) {
  std::vector<RTreeNode> pages(1);
  pages.insert(pages.end(), nodes.begin(), nodes.end());
  std::vector<bool> is_free(pages.size(), false);
  is_free[0] = true;
  NodeSoACache cache;
  cache.Build(pages, is_free);
  return cache;
}

struct ScalarMatch {
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  NodeMatchCounts counts;
};

/// The node-pair match of §2.2 on scalar code only, which
/// MatchNodeEntriesSoA must reproduce exactly: the same pairs in the same
/// order and the same three counts. With the restriction, each node keeps,
/// in entry order, the entries meeting the intersection of the two node
/// MBRs (none when it is empty). Then either the survivors are sorted by
/// (xl, index), NaN keys last, and swept by PlaneSweepJoinSortedScalar, or
/// nested loops test every survivor pair in entry order.
inline ScalarMatch ScalarNodeMatch(const RTreeNode& node_r,
                                   const RTreeNode& node_s,
                                   const NodeMatchOptions& options) {
  ScalarMatch out;
  const bool restricted = options.use_search_space_restriction;
  const Rect clip = node_r.ComputeMbr().Intersection(node_s.ComputeMbr());
  if (restricted && !clip.IsValid()) return out;
  std::vector<Rect> rects[2];
  std::vector<uint32_t> ids[2];
  for (const int side : {0, 1}) {
    const RTreeNode& node = side == 0 ? node_r : node_s;
    for (uint32_t i = 0; i < node.entries.size(); ++i) {
      if (!restricted || node.entries[i].rect.Intersects(clip)) {
        rects[side].push_back(node.entries[i].rect);
        ids[side].push_back(i);
      }
    }
  }
  out.counts.entries_considered_r = rects[0].size();
  out.counts.entries_considered_s = rects[1].size();
  if (!options.use_plane_sweep) {
    for (size_t i = 0; i < rects[0].size(); ++i) {
      for (size_t j = 0; j < rects[1].size(); ++j) {
        if (rects[0][i].Intersects(rects[1][j])) {
          out.pairs.emplace_back(ids[0][i], ids[1][j]);
        }
      }
    }
    out.counts.pairs_tested = rects[0].size() * rects[1].size();
    return out;
  }
  std::vector<uint32_t> order[2];
  std::vector<Rect> sorted[2];
  for (const int side : {0, 1}) {
    order[side] = SortedOrderByXl(rects[side]);
    for (const uint32_t k : order[side]) sorted[side].push_back(rects[side][k]);
  }
  PlaneSweepJoinSortedScalar(
      std::span<const Rect>(sorted[0]), std::span<const Rect>(sorted[1]),
      [&](size_t i, size_t j) {
        out.pairs.emplace_back(ids[0][order[0][i]], ids[1][order[1][j]]);
      },
      &out.counts.pairs_tested);
  return out;
}

}  // namespace psj

#endif  // PSJ_TESTS_NODE_MATCH_ORACLE_H_
