#ifndef PSJ_CORE_JOIN_PLAN_H_
#define PSJ_CORE_JOIN_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/join_config.h"
#include "data/map_object.h"
#include "rtree/rstar_tree.h"

namespace psj {

/// \brief The part of a ParallelJoinConfig that decides which node pairs
/// and candidates a join visits and what each candidate's refinement
/// yields. No cost, processor, disk, buffer, assignment, reassignment or
/// placement setting enters it, so configs that differ only in those share
/// one JoinPlan.
struct JoinPlanKey {
  bool use_search_space_restriction = true;
  bool use_plane_sweep = true;
  bool compute_answers = true;
  bool use_second_filter = false;
  /// 0 unless use_second_filter.
  int second_filter_sections = 0;

  static JoinPlanKey Of(const ParallelJoinConfig& config);

  friend bool operator==(const JoinPlanKey&, const JoinPlanKey&) = default;
};

/// \brief The geometry of one spatial join, computed once: every node pair
/// the synchronized descent of two sealed trees matches and every
/// candidate it yields, with the counts the simulator charges for them.
///
/// The simulated join (ParallelSpatialJoin) charges virtual time for node
/// matching, the second filter and the exact-geometry test, but none of
/// their results depends on the schedule. So one descent computes them,
/// and every simulated run of the same key reads them here instead of
/// matching nodes and testing polylines again.
///
/// Node pairs are stored breadth first from the height-aligned frontier
/// that BuildJoinTasks yields with a zero task target. So each level's
/// pairs are contiguous and in the order BuildJoinTasks' descent visits
/// them, and each directory pair's child pairs are contiguous and in the
/// order MatchNodeEntriesSoA emits the matched entries.
///
/// Thread safety: immutable once built; concurrent runs read it without
/// synchronization. The trees and object stores must outlive it.
class JoinPlan {
 public:
  /// One matched node pair.
  struct Pair {
    uint32_t page_r = 0;
    uint32_t page_s = 0;
    /// First child pair (level > 0) or first candidate (level 0).
    uint32_t first = 0;
    /// Matched entry pairs: child pairs or candidates.
    uint32_t count = 0;
    /// entries_considered_r + entries_considered_s of the match.
    uint32_t entries_considered = 0;
    /// NodeMatchCounts::pairs_tested of the match.
    uint32_t pairs_tested = 0;
    int16_t level = 0;
  };

  /// One matched entry pair of a data-page pair.
  struct Candidate {
    /// Entry indices into the two data pages (NodeSoACache::kMaxEntries
    /// bounds them).
    uint8_t entry_r = 0;
    uint8_t entry_s = 0;
    /// The second filter's verdict; true when the key has no filter.
    bool passes_filter = true;
    /// The exact polylines intersect; false when the key does not compute
    /// answers or the filter rejected the pair.
    bool is_answer = false;
    /// Section-pair tests the second filter performed (0 without it).
    uint32_t filter_tests = 0;
  };

  /// Builds the plan by one descent of the two trees, which must be sealed.
  /// The object stores may be null unless `key` computes answers or runs
  /// the second filter.
  static JoinPlan Build(const RStarTree& tree_r, const RStarTree& tree_s,
                        const ObjectStore* objects_r,
                        const ObjectStore* objects_s, const JoinPlanKey& key);

  const JoinPlanKey& key() const { return key_; }

  /// True when the plan was built over exactly these inputs.
  bool IsFor(const RStarTree* tree_r, const RStarTree* tree_s,
             const ObjectStore* objects_r,
             const ObjectStore* objects_s) const {
    return tree_r == tree_r_ && tree_s == tree_s_ &&
           objects_r == objects_r_ && objects_s == objects_s_;
  }

  size_t num_pairs() const { return pairs_.size(); }
  const Pair& pair(size_t index) const { return pairs_[index]; }
  /// Index of the first pair at `level`; pairs at one level are contiguous.
  size_t FirstPairAt(int level) const;

  size_t num_candidates() const { return candidates_.size(); }
  /// The candidates of the data-page pair `pair`, in match order.
  std::span<const Candidate> candidates(const Pair& pair) const {
    return {candidates_.data() + pair.first, pair.count};
  }

 private:
  JoinPlan(const RStarTree& tree_r, const RStarTree& tree_s,
           const ObjectStore* objects_r, const ObjectStore* objects_s,
           const JoinPlanKey& key)
      : tree_r_(&tree_r),
        tree_s_(&tree_s),
        objects_r_(objects_r),
        objects_s_(objects_s),
        key_(key) {}

  const RStarTree* tree_r_;
  const RStarTree* tree_s_;
  const ObjectStore* objects_r_;
  const ObjectStore* objects_s_;
  JoinPlanKey key_;
  std::vector<Pair> pairs_;
  std::vector<Candidate> candidates_;
};

}  // namespace psj

#endif  // PSJ_CORE_JOIN_PLAN_H_
