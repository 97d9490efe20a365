#include "core/task_builder.h"

#include <algorithm>
#include <deque>

namespace psj {
namespace {

/// One frontier element during the descent; the two levels differ only
/// while the height-alignment phase is still running.
struct FrontierPair {
  uint32_t page_r;
  uint32_t page_s;
  int level_r;
  int level_s;
};

}  // namespace

JoinTaskSet BuildJoinTasks(const RStarTree& tree_r, const RStarTree& tree_s,
                           int num_processors, double task_creation_factor,
                           const NodeMatchOptions& match_options,
                           const JoinTaskHooks& hooks,
                           NodeMatchScratch* scratch) {
  const NodeSoACache& cache_r = tree_r.sealed();
  const NodeSoACache& cache_s = tree_s.sealed();
  const auto fetch = [&](bool from_r, uint32_t page, int level) {
    if (hooks.fetch_node) {
      hooks.fetch_node(from_r ? tree_r : tree_s, page, level);
    }
    return (from_r ? cache_r : cache_s).view(page);
  };

  std::deque<FrontierPair> frontier;
  frontier.push_back(FrontierPair{tree_r.root_page(), tree_s.root_page(),
                                  tree_r.height() - 1, tree_s.height() - 1});

  // Expands the deeper side of one pair, keeping plane-sweep order.
  const auto expand_one_side = [&](const FrontierPair& pair,
                                   std::deque<FrontierPair>* out) {
    const bool expand_r = pair.level_r > pair.level_s;
    const uint32_t page = expand_r ? pair.page_r : pair.page_s;
    const int level = expand_r ? pair.level_r : pair.level_s;
    const NodeSoAView node = fetch(expand_r, page, level);
    const Rect other_mbr =
        fetch(!expand_r, expand_r ? pair.page_s : pair.page_r,
              expand_r ? pair.level_s : pair.level_r)
            .mbr;
    for (const uint32_t k : ChildOrderByXl(node)) {
      if (hooks.charge_alignment_test) {
        hooks.charge_alignment_test();
      }
      if (!node.rects.rect(k).Intersects(other_mbr)) continue;
      if (expand_r) {
        out->push_back(FrontierPair{node.child_page(k), pair.page_s,
                                    level - 1, pair.level_s});
      } else {
        out->push_back(FrontierPair{pair.page_r, node.child_page(k),
                                    pair.level_r, level - 1});
      }
    }
  };

  // First align the levels of the two trees.
  for (;;) {
    const bool any_unequal =
        std::any_of(frontier.begin(), frontier.end(),
                    [](const FrontierPair& fp) {
                      return fp.level_r != fp.level_s;
                    });
    if (!any_unequal) break;
    std::deque<FrontierPair> next;
    for (const FrontierPair& fp : frontier) {
      if (fp.level_r == fp.level_s) {
        next.push_back(fp);
      } else {
        expand_one_side(fp, &next);
      }
    }
    frontier = std::move(next);
  }

  // Then descend while the task count m is not sufficiently larger than the
  // processor count (§3.1: "if this condition is not fulfilled, the next
  // lower level will be considered").
  const auto needed = static_cast<size_t>(
      task_creation_factor * static_cast<double>(num_processors));
  while (!frontier.empty() && frontier.front().level_r > 0 &&
         frontier.size() < needed) {
    std::deque<FrontierPair> next;
    for (const FrontierPair& fp : frontier) {
      const NodeSoAView nr = fetch(true, fp.page_r, fp.level_r);
      const NodeSoAView ns = fetch(false, fp.page_s, fp.level_s);
      NodeMatchCounts counts;
      const auto matches =
          MatchNodeEntriesSoA(nr, ns, match_options, &counts, scratch);
      if (hooks.charge_match) {
        hooks.charge_match(counts);
      }
      for (const auto& [i, j] : matches) {
        next.push_back(FrontierPair{nr.child_page(i), ns.child_page(j),
                                    fp.level_r - 1, fp.level_s - 1});
      }
    }
    frontier = std::move(next);
  }

  JoinTaskSet result;
  result.tasks.reserve(frontier.size());
  for (const FrontierPair& fp : frontier) {
    result.tasks.push_back(
        NodePair{fp.page_r, fp.page_s, static_cast<int16_t>(fp.level_r)});
  }
  result.task_level = result.tasks.empty() ? 0 : result.tasks.front().level;
  return result;
}

}  // namespace psj
