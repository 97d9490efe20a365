#include "core/join_plan.h"

#include <algorithm>
#include <optional>

#include "core/task_builder.h"
#include "join/node_match.h"
#include "join/second_filter.h"
#include "util/check.h"

namespace psj {

static_assert(NodeSoACache::kMaxEntries <= 256,
              "JoinPlan::Candidate stores entry indices in one byte");

JoinPlanKey JoinPlanKey::Of(const ParallelJoinConfig& config) {
  JoinPlanKey key;
  key.use_search_space_restriction = config.use_search_space_restriction;
  key.use_plane_sweep = config.use_plane_sweep;
  key.compute_answers = config.compute_answers;
  key.use_second_filter = config.use_second_filter;
  key.second_filter_sections =
      config.use_second_filter ? config.second_filter_sections : 0;
  return key;
}

JoinPlan JoinPlan::Build(const RStarTree& tree_r, const RStarTree& tree_s,
                         const ObjectStore* objects_r,
                         const ObjectStore* objects_s, const JoinPlanKey& key) {
  const bool reads_objects = key.compute_answers || key.use_second_filter;
  PSJ_CHECK(!reads_objects || (objects_r != nullptr && objects_s != nullptr));
  JoinPlan plan(tree_r, tree_s, objects_r, objects_s, key);
  const NodeMatchOptions options{key.use_search_space_restriction,
                                 key.use_plane_sweep};
  const NodeSoACache& cache_r = tree_r.sealed();
  const NodeSoACache& cache_s = tree_s.sealed();
  std::optional<SecondFilter> filter_r;
  std::optional<SecondFilter> filter_s;
  if (key.use_second_filter) {
    filter_r.emplace(*objects_r, key.second_filter_sections);
    filter_s.emplace(*objects_s, key.second_filter_sections);
  }

  // With a zero task target BuildJoinTasks only aligns the heights, so its
  // tasks are the frontier every deeper level descends from.
  for (const NodePair& top :
       BuildJoinTasks(tree_r, tree_s, 0, 0.0, options).tasks) {
    plan.pairs_.push_back(
        Pair{.page_r = top.page_r, .page_s = top.page_s, .level = top.level});
  }
  NodeMatchScratch scratch;
  // Breadth first: pairs_ grows behind the cursor, one level after another.
  for (size_t k = 0; k < plan.pairs_.size(); ++k) {
    const Pair pair = plan.pairs_[k];
    const NodeSoAView nr = cache_r.view(pair.page_r);
    const NodeSoAView ns = cache_s.view(pair.page_s);
    NodeMatchCounts counts;
    const auto matches =
        MatchNodeEntriesSoA(nr, ns, options, &counts, &scratch);
    Pair& out = plan.pairs_[k];
    out.count = static_cast<uint32_t>(matches.size());
    out.entries_considered = static_cast<uint32_t>(
        counts.entries_considered_r + counts.entries_considered_s);
    out.pairs_tested = static_cast<uint32_t>(counts.pairs_tested);
    if (pair.level > 0) {
      out.first = static_cast<uint32_t>(plan.pairs_.size());
      for (const auto& [i, j] : matches) {
        plan.pairs_.push_back(
            Pair{.page_r = nr.child_page(i),
                 .page_s = ns.child_page(j),
                 .level = static_cast<int16_t>(pair.level - 1)});
      }
      continue;
    }
    out.first = static_cast<uint32_t>(plan.candidates_.size());
    for (const auto& [i, j] : matches) {
      Candidate candidate;
      candidate.entry_r = static_cast<uint8_t>(i);
      candidate.entry_s = static_cast<uint8_t>(j);
      const uint64_t id_r = nr.ids[i];
      const uint64_t id_s = ns.ids[j];
      if (key.use_second_filter) {
        size_t tests = 0;
        candidate.passes_filter = SecondFilter::CanIntersect(
            filter_r->sections(id_r), filter_s->sections(id_s), &tests);
        candidate.filter_tests = static_cast<uint32_t>(tests);
      }
      candidate.is_answer = key.compute_answers && candidate.passes_filter &&
                            objects_r->Get(id_r).geometry.Intersects(
                                objects_s->Get(id_s).geometry);
      plan.candidates_.push_back(candidate);
    }
  }
  return plan;
}

size_t JoinPlan::FirstPairAt(int level) const {
  // Breadth-first order lists the levels from the top down.
  return static_cast<size_t>(
      std::partition_point(pairs_.begin(), pairs_.end(),
                           [level](const Pair& p) { return p.level > level; }) -
      pairs_.begin());
}

}  // namespace psj
