#include "serve/batch_descent.h"

#include <algorithm>

#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "rtree/node_soa.h"
#include "util/check.h"

namespace psj::serve {
namespace {

/// One frontier element of the shared traversal: a node page and the
/// indices of the batch's queries whose windows intersect this node's
/// parent entry (hence may have results below it).
struct WorkItem {
  uint32_t page = 0;
  std::vector<uint32_t> qids;
};

/// Reusable buffers of one batched descent. Spent qid vectors are recycled
/// through `spare` so a steady-state descent performs no per-node
/// allocations beyond result growth.
struct DescentScratch {
  RectBatch queries;                 // The whole batch's windows, SoA.
  RectBatch subset;                  // Gathered rects of one item's qids.
  std::vector<WorkItem> stack;
  std::vector<std::vector<uint32_t>> spare;
  std::vector<uint32_t> hits;        // One scan's output indices.

  std::vector<uint32_t> TakeVector() {
    if (spare.empty()) {
      return {};
    }
    std::vector<uint32_t> v = std::move(spare.back());
    spare.pop_back();
    v.clear();
    return v;
  }

  void Recycle(std::vector<uint32_t> v) { spare.push_back(std::move(v)); }
};

}  // namespace

void BatchWindowQueries(const RStarTree& tree, std::span<const Rect> windows,
                        std::span<const int64_t> deadline_micros,
                        const NowMicrosFn& now_micros, BatchWindowOutput* out,
                        DescentStats* stats) {
  const NodeSoACache& cache = tree.sealed();
  PSJ_CHECK(deadline_micros.empty() ||
            deadline_micros.size() == windows.size());

  const size_t n = windows.size();
  out->ids.assign(n, {});
  out->complete.assign(n, true);
  DescentStats local;
  if (n == 0) {
    if (stats != nullptr) *stats = local;
    return;
  }

  thread_local DescentScratch sc;
  sc.queries.Assign(windows);
  const RectSoAView qview = sc.queries.view();
  const bool check_deadlines =
      now_micros != nullptr && !deadline_micros.empty();

  // Root item: every query. (Queries not intersecting the root MBR drop
  // out at the root scan like everywhere else.)
  {
    WorkItem root;
    root.page = tree.root_page();
    root.qids.resize(n);
    for (size_t q = 0; q < n; ++q) {
      root.qids[q] = static_cast<uint32_t>(q);
    }
    sc.stack.clear();
    sc.stack.push_back(std::move(root));
  }

  while (!sc.stack.empty()) {
    WorkItem item = std::move(sc.stack.back());
    sc.stack.pop_back();
    ++local.nodes_visited;

    // Deadline gate, once per node visit: expired queries leave the
    // frontier here and are flagged partial.
    if (check_deadlines) {
      const int64_t now = now_micros();
      size_t kept = 0;
      for (const uint32_t q : item.qids) {
        const int64_t deadline = deadline_micros[q];
        if (deadline >= 0 && now >= deadline) {
          out->complete[q] = false;
        } else {
          item.qids[kept++] = q;
        }
      }
      item.qids.resize(kept);
    }
    if (item.qids.empty()) {
      sc.Recycle(std::move(item.qids));
      continue;
    }

    const NodeSoAView view = cache.view(item.page);

    // Below this subset size the transposed scan stops paying: it runs one
    // (short) subset scan per node entry, so a nearly-empty subset costs
    // ~`entries` kernel calls where the query-major direction costs
    // ~`subset * entries/lanes`. The break-even at the tree's fan-outs
    // (data 26, directory 102) sits around 4–8 queries; small subsets run
    // query-major — exactly the single-query descent per member, which
    // also keeps a batch of one bit-equal (as a set) to WindowQuery.
    constexpr size_t kQueryMajorSubsetMax = 4;
    if (item.qids.size() <= kQueryMajorSubsetMax) {
      for (const uint32_t q : item.qids) {
        ++local.node_scans;
        ScanIntersecting(view.rects, windows[q], &sc.hits);
        local.entry_tests += static_cast<int64_t>(view.size());
        if (view.is_leaf()) {
          for (const uint32_t e : sc.hits) {
            out->ids[q].push_back(view.ids[e]);
          }
          continue;
        }
        for (const uint32_t e : sc.hits) {
          WorkItem child;
          child.page = view.child_page(e);
          child.qids = sc.TakeVector();
          child.qids.push_back(q);
          sc.stack.push_back(std::move(child));
        }
      }
      sc.Recycle(std::move(item.qids));
      continue;
    }

    // Batched node visit: the subset's windows already sit in SoA planes,
    // so run the branchless intra-node kernel transposed — one
    // ScanIntersecting over the subset per node *entry*. Per-entry query
    // groups fall out directly (each child page is pushed exactly once,
    // with the queries that reach it), with no sort or grouping pass; a
    // sort-based sweep was measurably slower here because both index sets
    // would be re-sorted at every visited node.
    sc.subset.AssignGather(qview, item.qids);
    const RectSoAView sview = sc.subset.view();
    ++local.node_scans;
    local.entry_tests +=
        static_cast<int64_t>(view.size() * item.qids.size());
    const bool leaf = view.is_leaf();
    for (size_t e = 0; e < view.size(); ++e) {
      ScanIntersecting(sview, view.rects.rect(e), &sc.hits);
      if (sc.hits.empty()) {
        continue;
      }
      local.pairs_grouped += static_cast<int64_t>(sc.hits.size());
      if (leaf) {
        const uint64_t id = view.ids[e];
        for (const uint32_t q : sc.hits) {
          out->ids[item.qids[q]].push_back(id);
        }
        continue;
      }
      WorkItem child;
      child.page = view.child_page(e);
      child.qids = sc.TakeVector();
      for (const uint32_t q : sc.hits) {
        child.qids.push_back(item.qids[q]);
      }
      sc.stack.push_back(std::move(child));
    }
    sc.Recycle(std::move(item.qids));
  }

  if (stats != nullptr) *stats = local;
}

bool TripleIntersects(const Rect& a, const Rect& b, const Rect& region) {
  const double xl = std::max({a.xl, b.xl, region.xl});
  const double xu = std::min({a.xu, b.xu, region.xu});
  const double yl = std::max({a.yl, b.yl, region.yl});
  const double yu = std::min({a.yu, b.yu, region.yu});
  return xl <= xu && yl <= yu;
}

void RegionJoinQuery(const RStarTree& tree_r, const RStarTree& tree_s,
                     const Rect& region, int64_t deadline_micros,
                     const NowMicrosFn& now_micros, RegionJoinOutput* out,
                     DescentStats* stats) {
  const NodeSoACache& cache_r = tree_r.sealed();
  const NodeSoACache& cache_s = tree_s.sealed();

  out->pairs.clear();
  out->complete = true;
  DescentStats local;

  thread_local SweepScratch match_scratch;
  thread_local std::vector<std::pair<uint32_t, uint32_t>> page_stack;
  page_stack.clear();
  page_stack.emplace_back(tree_r.root_page(), tree_s.root_page());
  const bool check_deadline = now_micros != nullptr && deadline_micros >= 0;

  while (!page_stack.empty()) {
    if (check_deadline && now_micros() >= deadline_micros) {
      out->complete = false;
      break;
    }
    const auto [page_r, page_s] = page_stack.back();
    page_stack.pop_back();
    ++local.nodes_visited;

    const NodeSoAView vr = cache_r.view(page_r);
    const NodeSoAView vs = cache_s.view(page_s);

    // Height mismatch: descend the deeper tree only, pruning subtrees
    // whose entry cannot hold a qualifying pair (no common point with the
    // other node's MBR and the region).
    if (vr.level != vs.level) {
      const bool r_deeper = vr.level > vs.level;
      const NodeSoAView& deep = r_deeper ? vr : vs;
      const Rect other = r_deeper ? vs.mbr : vr.mbr;
      for (size_t e = 0; e < deep.size(); ++e) {
        if (TripleIntersects(deep.rects.rect(e), other, region)) {
          const uint32_t child = deep.child_page(e);
          page_stack.emplace_back(r_deeper ? child : page_r,
                                  r_deeper ? page_s : child);
        }
      }
      continue;
    }

    // A qualifying pair below this node pair has a common point inside
    // both MBRs and the region, so the three-way intersection is a sound
    // search-space restriction for the sweep.
    const Rect clip = vr.mbr.Intersection(vs.mbr).Intersection(region);
    if (!clip.IsValid()) {
      continue;
    }
    ++local.node_scans;
    const bool leaf = vr.is_leaf();
    local.entry_tests += static_cast<int64_t>(BatchSweepJoinViews(
        match_scratch, vr.rects, vr.x_order, vs.rects, vs.x_order, &clip,
        [&](size_t i, size_t j) {
          // The sweep guarantees pairwise overlap and overlap with the
          // clip, but not a common three-way point — post-filter exactly.
          if (!TripleIntersects(vr.rects.rect(i), vs.rects.rect(j),
                                region)) {
            return;
          }
          ++local.pairs_grouped;
          if (leaf) {
            out->pairs.emplace_back(vr.ids[i], vs.ids[j]);
          } else {
            page_stack.emplace_back(vr.child_page(i), vs.child_page(j));
          }
        }));
  }

  if (stats != nullptr) *stats = local;
}

}  // namespace psj::serve
