#include "join/sequential_join.h"

namespace psj {
namespace {

class SequentialJoiner {
 public:
  SequentialJoiner(const RStarTree& tree_r, const RStarTree& tree_s,
                   const SequentialJoinOptions& options)
      : cache_r_(tree_r.sealed()),
        cache_s_(tree_s.sealed()),
        root_r_(tree_r.root_page()),
        root_s_(tree_s.root_page()),
        options_(options) {}

  SequentialJoinResult Run() {
    JoinPages(root_r_, root_s_);
    return std::move(result_);
  }

 private:
  NodeSoAView Fetch(const NodeSoACache& cache, uint32_t page) {
    ++result_.node_reads;
    return cache.view(page);
  }

  void JoinPages(uint32_t page_r, uint32_t page_s) {
    const NodeSoAView nr = Fetch(cache_r_, page_r);
    const NodeSoAView ns = Fetch(cache_s_, page_s);
    if (nr.level > ns.level) {
      // Descend the deeper tree only, keeping sweep order by child xl.
      for (const uint32_t k : ChildOrderByXl(nr)) {
        if (nr.rects.rect(k).Intersects(ns.mbr)) {
          JoinPages(nr.child_page(k), page_s);
        }
      }
      return;
    }
    if (ns.level > nr.level) {
      for (const uint32_t k : ChildOrderByXl(ns)) {
        if (ns.rects.rect(k).Intersects(nr.mbr)) {
          JoinPages(page_r, ns.child_page(k));
        }
      }
      return;
    }
    ++result_.node_pairs_processed;
    const auto pairs = MatchNodeEntriesSoA(nr, ns, options_.match, nullptr,
                                           &match_scratch_);
    if (nr.is_leaf()) {
      for (const auto& [i, j] : pairs) {
        result_.candidates.emplace_back(nr.ids[i], ns.ids[j]);
      }
      return;
    }
    for (const auto& [i, j] : pairs) {
      JoinPages(nr.child_page(i), ns.child_page(j));
    }
  }

  const NodeSoACache& cache_r_;
  const NodeSoACache& cache_s_;
  const uint32_t root_r_;
  const uint32_t root_s_;
  const SequentialJoinOptions& options_;
  SequentialJoinResult result_;
  NodeMatchScratch match_scratch_;
};

}  // namespace

SequentialJoinResult SequentialRTreeJoin(const RStarTree& tree_r,
                                         const RStarTree& tree_s,
                                         const SequentialJoinOptions& options) {
  SequentialJoiner joiner(tree_r, tree_s, options);
  return joiner.Run();
}

BruteForceJoinResult BruteForceObjectJoin(const ObjectStore& store_r,
                                          const ObjectStore& store_s) {
  BruteForceJoinResult result;
  // Get() folds an object's MBR from its points; fold the inner side's once.
  std::vector<Rect> mbrs_s;
  mbrs_s.reserve(store_s.size());
  for (const MapObject& b : store_s.objects()) {
    mbrs_s.push_back(b.Mbr());
  }
  for (const MapObject& a : store_r.objects()) {
    for (uint64_t id_s = 0; id_s < mbrs_s.size(); ++id_s) {
      if (a.Mbr().Intersects(mbrs_s[id_s])) {
        result.candidates.emplace_back(a.id, id_s);
        if (a.geometry.Intersects(store_s.Get(id_s).geometry)) {
          result.answers.emplace_back(a.id, id_s);
        }
      }
    }
  }
  return result;
}

}  // namespace psj
