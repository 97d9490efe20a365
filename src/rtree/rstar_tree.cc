#include "rtree/rstar_tree.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <queue>
#include <limits>

#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "util/check.h"
#include "util/string_util.h"

namespace psj {
namespace {

// Marker stored in the level field of freed pages within a packed file.
constexpr uint16_t kFreePageLevelMarker = 0xffff;

// Squared distance between rectangle centers.
double CenterDistanceSq(const Rect& a, const Rect& b) {
  const Point ca = a.Center();
  const Point cb = b.Center();
  const double dx = ca.x - cb.x;
  const double dy = ca.y - cb.y;
  return dx * dx + dy * dy;
}

// Serialized tree metadata, stored in page 0.
struct TreeMeta {
  uint64_t magic;
  uint32_t root_page;
  int32_t height;
  int64_t num_data_entries;
  uint32_t tree_id;
  uint32_t num_pages;
};

constexpr uint64_t kTreeMagic = 0x505351525452454aULL;  // "PSQRTREJ"

// Per-thread buffers of ChooseLeastOverlapEnlargement (insertion runs on
// one thread per tree, but several trees may be built concurrently).
struct ChooseScratch {
  std::vector<double> area;
  std::vector<double> area_delta;
  std::vector<double> overlap_delta;
  std::vector<uint32_t> hits;
  RectBatch batch;
};

}  // namespace

size_t ChooseLeastOverlapEnlargement(std::span<const RTreeEntry> entries,
                                     const Rect& rect) {
  PSJ_CHECK(!entries.empty());
  thread_local ChooseScratch s;
  const size_t n = entries.size();
  s.area.resize(n);
  s.area_delta.resize(n);
  // The shortcut below needs every key finite. A finite sum of the areas
  // bounds every overlap sum (each term is at most its sibling's area), so
  // it also rules out overflowing overlap sums.
  double area_sum = 0.0;
  bool finite = true;
  for (size_t i = 0; i < n; ++i) {
    s.area[i] = entries[i].rect.Area();
    s.area_delta[i] = entries[i].rect.Enlargement(rect);
    area_sum += s.area[i];
    finite = finite && std::isfinite(s.area_delta[i]);
  }
  finite = finite && std::isfinite(area_sum);
  s.batch.AssignProjected(entries, [](const RTreeEntry& e) -> const Rect& {
    return e.rect;
  });
  const RectSoAView node = s.batch.view();

  if (finite) {
    // Overlap enlargements are never negative (every operation in the two
    // sums is monotone under round-to-nearest), so the first candidate in
    // (area enlargement, area, index) order wins the fold below outright
    // if its overlap enlargement is exactly 0. A candidate containing
    // `rect` is not enlarged at all: both sums are the same finite value.
    // About seven calls in ten on the mixed paper map end here, and nine in
    // ten on the streets map.
    size_t first = 0;
    for (size_t i = 1; i < n; ++i) {
      if (s.area_delta[i] < s.area_delta[first] ||
          (s.area_delta[i] == s.area_delta[first] &&
           s.area[i] < s.area[first])) {
        first = i;
      }
    }
    if (entries[first].rect.Contains(rect) ||
        OverlapEnlargement(node, first, rect, &s.hits) == 0.0) {
      return first;
    }
  }

  // The direct definition: every candidate's overlap enlargement, then the
  // fold over (overlap enlargement, area enlargement, area) in index order,
  // which also decides for non-finite keys.
  OverlapEnlargements(node, rect, &s.hits, &s.overlap_delta);
  size_t best = 0;
  double best_overlap_delta = std::numeric_limits<double>::infinity();
  double best_area_delta = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < n; ++i) {
    const double overlap_delta = s.overlap_delta[i];
    const double area_delta = s.area_delta[i];
    const double area = s.area[i];
    if (overlap_delta < best_overlap_delta ||
        (overlap_delta == best_overlap_delta &&
         (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)))) {
      best = i;
      best_overlap_delta = overlap_delta;
      best_area_delta = area_delta;
      best_area = area;
    }
  }
  return best;
}

RStarTree::RStarTree(uint32_t tree_id, RTreeOptions options)
    : tree_id_(tree_id), options_(options) {
  PSJ_CHECK_GE(options_.max_dir_entries, 4u);
  PSJ_CHECK_GE(options_.max_data_entries, 4u);
  PSJ_CHECK_LE(options_.max_dir_entries, NodeSoACache::kMaxEntries);
  PSJ_CHECK_LE(options_.max_data_entries, NodeSoACache::kMaxEntries);
  PSJ_CHECK_GT(options_.min_fill_fraction, 0.0);
  PSJ_CHECK_LE(options_.min_fill_fraction, 0.5);
  PSJ_CHECK_GT(options_.reinsert_fraction, 0.0);
  PSJ_CHECK_LT(options_.reinsert_fraction, 1.0);
  nodes_.emplace_back();  // Page 0: metadata, never a node.
  is_free_.push_back(true);
  RTreeNode root;
  root.level = 0;
  root_page_ = AllocateNode(std::move(root));
  height_ = 1;
}

size_t RStarTree::MinFillFor(int level) const {
  const size_t capacity = CapacityFor(level);
  const size_t min_fill =
      static_cast<size_t>(options_.min_fill_fraction *
                          static_cast<double>(capacity));
  return std::max<size_t>(2, min_fill);
}

uint32_t RStarTree::AllocateNode(RTreeNode node) {
  PSJ_DCHECK_PHASE(phase_ == TreePhase::kMutable)
      << "AllocateNode on a sealed tree; call Thaw() before mutating";
  soa_valid_ = false;
  if (!free_pages_.empty()) {
    const uint32_t page_no = free_pages_.back();
    free_pages_.pop_back();
    nodes_[page_no] = std::move(node);
    is_free_[page_no] = false;
    return page_no;
  }
  const uint32_t page_no = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(std::move(node));
  is_free_.push_back(false);
  return page_no;
}

void RStarTree::FreeNode(uint32_t page_no) {
  PSJ_DCHECK_PHASE(phase_ == TreePhase::kMutable)
      << "FreeNode on a sealed tree; call Thaw() before mutating";
  PSJ_CHECK_GT(page_no, 0u);
  PSJ_CHECK(!is_free_[page_no]);
  soa_valid_ = false;
  nodes_[page_no] = RTreeNode();
  is_free_[page_no] = true;
  free_pages_.push_back(page_no);
}

const RTreeNode& RStarTree::node(uint32_t page_no) const {
  PSJ_CHECK_LT(page_no, nodes_.size());
  PSJ_CHECK(!is_free_[page_no]) << "access to freed page" << page_no;
  PSJ_CHECK(!(phase_ == TreePhase::kSealed && nodes_[page_no].is_leaf()))
      << StringPrintf(
             "data page %u of tree %u was released by Seal(); read "
             "sealed().view(%u) instead",
             page_no, tree_id_, page_no);
  return nodes_[page_no];
}

RTreeNode RStarTree::ReadNode(uint32_t page_no) const {
  if (phase_ == TreePhase::kMutable) return node(page_no);
  PSJ_CHECK(!IsFreePage(page_no)) << "access to freed page" << page_no;
  const NodeSoAView view = soa_cache_.view(page_no);
  return RTreeNode{view.level, EntriesOf(view)};
}

Rect RStarTree::root_mbr() const {
  return soa_valid_ ? soa_cache_.view(root_page_).mbr
                    : node(root_page_).ComputeMbr();
}

RTreeNode& RStarTree::mutable_node(uint32_t page_no) {
  PSJ_DCHECK_PHASE(phase_ == TreePhase::kMutable)
      << "mutable_node on a sealed tree; call Thaw() before mutating";
  PSJ_CHECK_LT(page_no, nodes_.size());
  PSJ_CHECK(!is_free_[page_no]);
  soa_valid_ = false;
  return nodes_[page_no];
}

void RStarTree::Seal() {
  // Timed because sealing is the startup cost of every wall-clock engine
  // (the serving layer requires sealed trees); steady_clock is legal here —
  // the no-wall-clock lint rule covers only the simulated layers.
  const auto start = std::chrono::steady_clock::now();
  if (!soa_valid_) soa_cache_.Reset(nodes_.size());
  for (uint32_t p = 1; p < num_pages(); ++p) {
    if (is_free_[p]) continue;
    RTreeNode& n = nodes_[p];
    if (!soa_valid_) soa_cache_.Store(p, n);
    // Released right after its block is written, so the next block can
    // take the freed memory. Directory entries stay for perfbench's
    // replay, which reads node(page).entries of directory pages.
    if (n.is_leaf()) std::vector<RTreeEntry>().swap(n.entries);
  }
  soa_valid_ = true;
  phase_ = TreePhase::kSealed;
  last_seal_micros_ = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
}

void RStarTree::Thaw() {
  if (phase_ == TreePhase::kSealed) {
    for (uint32_t p = 1; p < num_pages(); ++p) {
      if (!is_free_[p] && nodes_[p].is_leaf()) {
        nodes_[p].entries = EntriesOf(soa_cache_.view(p));
      }
    }
  }
  phase_ = TreePhase::kMutable;
}

const NodeSoACache& RStarTree::sealed() const {
  PSJ_CHECK(soa_valid_) << "tree" << tree_id_
                        << "is not sealed: queries and joins read the "
                           "sealed node image, so call RStarTree::Seal() "
                           "after the last mutation";
  return soa_cache_;
}

bool RStarTree::IsFreePage(uint32_t page_no) const {
  PSJ_CHECK_LT(page_no, nodes_.size());
  return is_free_[page_no];
}

void RStarTree::Insert(const Rect& rect, uint64_t oid) {
  // Checked on entry, in every build: the descent below would first reach
  // a data page, which a sealed tree has released.
  PSJ_CHECK(phase_ == TreePhase::kMutable)
      << "Insert on a sealed tree; call Thaw() before mutating";
  PSJ_CHECK(rect.IsValid()) << "Insert with invalid rect" << rect.ToString();
  std::vector<bool> reinserted(static_cast<size_t>(height_), false);
  InsertAtLevel(RTreeEntry{rect, oid}, 0, &reinserted);
  ++num_data_entries_;
}

std::vector<uint32_t> RStarTree::ChoosePath(const Rect& rect,
                                            int target_level) const {
  PSJ_CHECK_LE(target_level, height_ - 1);
  std::vector<uint32_t> path;
  uint32_t current = root_page_;
  path.push_back(current);
  while (node(current).level > target_level) {
    const RTreeNode& n = node(current);
    PSJ_CHECK(!n.entries.empty());
    size_t best = 0;
    if (n.level == 1 &&
        options_.choose_subtree == ChooseSubtreePolicy::kRStar) {
      best = ChooseLeastOverlapEnlargement(
          std::span<const RTreeEntry>(n.entries.begin(), n.entries.size()),
          rect);
    } else {
      // Children are directory nodes: minimize area enlargement, ties by
      // area.
      double best_area_delta = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < n.entries.size(); ++i) {
        const double area_delta = n.entries[i].rect.Enlargement(rect);
        const double area = n.entries[i].rect.Area();
        if (area_delta < best_area_delta ||
            (area_delta == best_area_delta && area < best_area)) {
          best = i;
          best_area_delta = area_delta;
          best_area = area;
        }
      }
    }
    current = n.entries[best].child_page();
    path.push_back(current);
  }
  return path;
}

void RStarTree::InsertAtLevel(const RTreeEntry& entry, int target_level,
                              std::vector<bool>* reinserted) {
  const std::vector<uint32_t> path = ChoosePath(entry.rect, target_level);
  mutable_node(path.back()).entries.push_back(entry);
  OverflowTreatment(path, reinserted);
}

void RStarTree::UpdatePathMbrs(const std::vector<uint32_t>& path,
                               size_t from) {
  for (size_t i = std::min(from, path.size() - 1); i > 0; --i) {
    const Rect mbr = node(path[i]).ComputeMbr();
    RTreeNode& parent = mutable_node(path[i - 1]);
    parent.entries[FindChildIndex(path[i - 1], path[i])].rect = mbr;
  }
}

void RStarTree::OverflowTreatment(const std::vector<uint32_t>& path,
                                  std::vector<bool>* reinserted) {
  if (static_cast<int>(reinserted->size()) < height_) {
    reinserted->resize(static_cast<size_t>(height_), false);
  }
  size_t i = path.size() - 1;
  for (;;) {
    const uint32_t page = path[i];
    RTreeNode& n = mutable_node(page);
    if (n.entries.size() <= CapacityFor(n.level)) {
      UpdatePathMbrs(path, i);
      return;
    }
    const bool is_root = page == root_page_;
    if (!is_root && options_.enable_forced_reinsert &&
        !(*reinserted)[static_cast<size_t>(n.level)]) {
      (*reinserted)[static_cast<size_t>(n.level)] = true;
      const int level = n.level;
      std::vector<RTreeEntry> removed = TakeReinsertEntries(page);
      UpdatePathMbrs(path, i);
      for (const RTreeEntry& e : removed) {
        InsertAtLevel(e, level, reinserted);
      }
      return;
    }
    // Split the node.
    const int level = n.level;
    const RTreeEntry sibling_entry = SplitNode(page);
    if (is_root) {
      RTreeNode new_root;
      new_root.level = static_cast<int16_t>(level + 1);
      new_root.entries.push_back(
          RTreeEntry{node(page).ComputeMbr(), page});
      new_root.entries.push_back(sibling_entry);
      root_page_ = AllocateNode(std::move(new_root));
      ++height_;
      reinserted->resize(static_cast<size_t>(height_), false);
      return;
    }
    PSJ_CHECK_GT(i, 0u);
    RTreeNode& parent = mutable_node(path[i - 1]);
    parent.entries[FindChildIndex(path[i - 1], page)].rect =
        node(page).ComputeMbr();
    parent.entries.push_back(sibling_entry);
    --i;
  }
}

std::vector<RTreeEntry> RStarTree::TakeReinsertEntries(uint32_t page_no) {
  RTreeNode& n = mutable_node(page_no);
  const size_t count = n.entries.size();
  const size_t p = std::max<size_t>(
      1, static_cast<size_t>(options_.reinsert_fraction *
                             static_cast<double>(CapacityFor(n.level))));
  PSJ_CHECK_LT(p, count);
  const Rect node_mbr = n.ComputeMbr();

  // Sort indices by distance of the entry center to the node center,
  // descending; ties by index for determinism.
  std::vector<size_t> order(count);
  for (size_t i = 0; i < count; ++i) order[i] = i;
  std::vector<double> dist(count);
  for (size_t i = 0; i < count; ++i) {
    dist[i] = CenterDistanceSq(n.entries[i].rect, node_mbr);
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (dist[a] != dist[b]) return dist[a] > dist[b];
    return a < b;
  });

  // The p farthest entries are removed; RI4 "close reinsert" reinserts them
  // starting with the one closest to the center.
  std::vector<RTreeEntry> removed;
  removed.reserve(p);
  std::vector<bool> take(count, false);
  for (size_t k = 0; k < p; ++k) take[order[k]] = true;
  std::vector<RTreeEntry> kept;
  kept.reserve(count - p);
  for (size_t k = p; k-- > 0;) {  // Closest of the removed first.
    removed.push_back(n.entries[order[k]]);
  }
  for (size_t i = 0; i < count; ++i) {
    if (!take[i]) kept.push_back(n.entries[i]);
  }
  n.entries = std::move(kept);
  return removed;
}

RTreeOptions RTreeOptions::ClassicGuttman() {
  RTreeOptions options;
  options.enable_forced_reinsert = false;
  options.split_algorithm = SplitAlgorithm::kQuadratic;
  options.choose_subtree = ChooseSubtreePolicy::kClassic;
  return options;
}

RTreeEntry RStarTree::SplitNode(uint32_t page_no) {
  switch (options_.split_algorithm) {
    case SplitAlgorithm::kRStar:
      return SplitNodeRStar(page_no);
    case SplitAlgorithm::kQuadratic:
      return SplitNodeQuadratic(page_no);
    case SplitAlgorithm::kLinear:
      return SplitNodeLinear(page_no);
  }
  PSJ_CHECK(false) << "unknown split algorithm";
  return RTreeEntry{};
}

void RStarTree::DistributeGuttman(std::vector<RTreeEntry> rest,
                                  bool quadratic, size_t min_fill,
                                  RTreeNode* group1, RTreeNode* group2) {
  Rect mbr1 = group1->ComputeMbr();
  Rect mbr2 = group2->ComputeMbr();
  while (!rest.empty()) {
    // Min-fill forcing: when one group needs every remaining entry to
    // reach the minimum, hand the rest over.
    if (group1->entries.size() + rest.size() <= min_fill) {
      for (const RTreeEntry& e : rest) {
        group1->entries.push_back(e);
      }
      return;
    }
    if (group2->entries.size() + rest.size() <= min_fill) {
      for (const RTreeEntry& e : rest) {
        group2->entries.push_back(e);
      }
      return;
    }
    size_t pick = 0;
    if (quadratic) {
      // PickNext: the entry with the greatest preference for one group.
      double best_diff = -1.0;
      for (size_t i = 0; i < rest.size(); ++i) {
        const double d1 = mbr1.Enlargement(rest[i].rect);
        const double d2 = mbr2.Enlargement(rest[i].rect);
        const double diff = std::abs(d1 - d2);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
        }
      }
    }
    const RTreeEntry entry = rest[pick];
    rest.erase(rest.begin() + static_cast<long>(pick));
    const double d1 = mbr1.Enlargement(entry.rect);
    const double d2 = mbr2.Enlargement(entry.rect);
    bool to_first;
    if (d1 != d2) {
      to_first = d1 < d2;
    } else if (mbr1.Area() != mbr2.Area()) {
      to_first = mbr1.Area() < mbr2.Area();
    } else {
      to_first = group1->entries.size() <= group2->entries.size();
    }
    if (to_first) {
      group1->entries.push_back(entry);
      mbr1.ExpandToInclude(entry.rect);
    } else {
      group2->entries.push_back(entry);
      mbr2.ExpandToInclude(entry.rect);
    }
  }
}

RTreeEntry RStarTree::SplitNodeQuadratic(uint32_t page_no) {
  RTreeNode& n = mutable_node(page_no);
  const size_t total = n.entries.size();
  const size_t min_fill = MinFillFor(n.level);
  PSJ_CHECK_GE(total, 2u);

  // PickSeeds: the pair wasting the most area if grouped together.
  size_t seed1 = 0;
  size_t seed2 = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < total; ++i) {
    for (size_t j = i + 1; j < total; ++j) {
      const double waste =
          n.entries[i].rect.UnionWith(n.entries[j].rect).Area() -
          n.entries[i].rect.Area() - n.entries[j].rect.Area();
      if (waste > worst) {
        worst = waste;
        seed1 = i;
        seed2 = j;
      }
    }
  }

  RTreeNode group1;
  RTreeNode group2;
  group1.level = group2.level = n.level;
  group1.entries.push_back(n.entries[seed1]);
  group2.entries.push_back(n.entries[seed2]);
  std::vector<RTreeEntry> rest;
  rest.reserve(total - 2);
  for (size_t i = 0; i < total; ++i) {
    if (i != seed1 && i != seed2) {
      rest.push_back(n.entries[i]);
    }
  }
  DistributeGuttman(std::move(rest), /*quadratic=*/true, min_fill, &group1,
                    &group2);

  n.entries = std::move(group1.entries);
  const Rect sibling_mbr = group2.ComputeMbr();
  const uint32_t sibling_page = AllocateNode(std::move(group2));
  return RTreeEntry{sibling_mbr, sibling_page};
}

RTreeEntry RStarTree::SplitNodeLinear(uint32_t page_no) {
  RTreeNode& n = mutable_node(page_no);
  const size_t total = n.entries.size();
  const size_t min_fill = MinFillFor(n.level);
  PSJ_CHECK_GE(total, 2u);

  // Linear PickSeeds: per axis, the entry with the highest low side and
  // the one with the lowest high side; greatest normalized separation wins.
  const Rect mbr = n.ComputeMbr();
  size_t best_a = 0;
  size_t best_b = 1;
  double best_separation = -std::numeric_limits<double>::infinity();
  for (int axis = 0; axis < 2; ++axis) {
    size_t highest_low = 0;
    size_t lowest_high = 0;
    for (size_t i = 1; i < total; ++i) {
      const double low =
          axis == 0 ? n.entries[i].rect.xl : n.entries[i].rect.yl;
      const double high =
          axis == 0 ? n.entries[i].rect.xu : n.entries[i].rect.yu;
      const double low_best = axis == 0 ? n.entries[highest_low].rect.xl
                                        : n.entries[highest_low].rect.yl;
      const double high_best = axis == 0 ? n.entries[lowest_high].rect.xu
                                         : n.entries[lowest_high].rect.yu;
      if (low > low_best) highest_low = i;
      if (high < high_best) lowest_high = i;
    }
    const double extent = axis == 0 ? mbr.Width() : mbr.Height();
    if (extent <= 0.0 || highest_low == lowest_high) {
      continue;
    }
    const double low_of_hl = axis == 0 ? n.entries[highest_low].rect.xl
                                       : n.entries[highest_low].rect.yl;
    const double high_of_lh = axis == 0 ? n.entries[lowest_high].rect.xu
                                        : n.entries[lowest_high].rect.yu;
    const double separation = (low_of_hl - high_of_lh) / extent;
    if (separation > best_separation) {
      best_separation = separation;
      best_a = lowest_high;
      best_b = highest_low;
    }
  }
  if (best_a == best_b) {
    best_a = 0;
    best_b = 1;
  }

  RTreeNode group1;
  RTreeNode group2;
  group1.level = group2.level = n.level;
  group1.entries.push_back(n.entries[best_a]);
  group2.entries.push_back(n.entries[best_b]);
  std::vector<RTreeEntry> rest;
  rest.reserve(total - 2);
  for (size_t i = 0; i < total; ++i) {
    if (i != best_a && i != best_b) {
      rest.push_back(n.entries[i]);
    }
  }
  DistributeGuttman(std::move(rest), /*quadratic=*/false, min_fill, &group1,
                    &group2);

  n.entries = std::move(group1.entries);
  const Rect sibling_mbr = group2.ComputeMbr();
  const uint32_t sibling_page = AllocateNode(std::move(group2));
  return RTreeEntry{sibling_mbr, sibling_page};
}

RTreeEntry RStarTree::SplitNodeRStar(uint32_t page_no) {
  RTreeNode& n = mutable_node(page_no);
  const size_t total = n.entries.size();
  const size_t min_fill = MinFillFor(n.level);
  PSJ_CHECK_GE(total, 2 * min_fill);

  // For each axis and each sort key (lower/upper coordinate), evaluate all
  // distributions; pick the axis with the minimal margin sum (CSA1), then
  // the distribution with minimal overlap, ties by total area (CSI1).
  struct Candidate {
    int axis;        // 0 = x, 1 = y.
    bool by_upper;   // Sort key: lower (false) or upper (true) coordinate.
    size_t split;    // Group 1 = sorted[0, split).
    double overlap;
    double area;
  };

  std::vector<RTreeEntry> sorted(n.entries.begin(), n.entries.end());
  double best_margin_sum[2] = {std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::infinity()};
  Candidate best_per_axis[2] = {};

  for (int axis = 0; axis < 2; ++axis) {
    double margin_sum = 0.0;
    Candidate axis_best{axis, false, 0,
                        std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::infinity()};
    for (int key = 0; key < 2; ++key) {
      const bool by_upper = key == 1;
      std::sort(sorted.begin(), sorted.end(),
                [axis, by_upper](const RTreeEntry& a, const RTreeEntry& b) {
                  const double ka =
                      axis == 0 ? (by_upper ? a.rect.xu : a.rect.xl)
                                : (by_upper ? a.rect.yu : a.rect.yl);
                  const double kb =
                      axis == 0 ? (by_upper ? b.rect.xu : b.rect.xl)
                                : (by_upper ? b.rect.yu : b.rect.yl);
                  if (ka != kb) return ka < kb;
                  // Secondary key: the entry id alone, for determinism.
                  // Changing it would change the tree's pages.
                  return a.id < b.id;
                });
      // Prefix and suffix MBRs of the sorted sequence.
      std::vector<Rect> prefix(total);
      std::vector<Rect> suffix(total);
      prefix[0] = sorted[0].rect;
      for (size_t i = 1; i < total; ++i) {
        prefix[i] = prefix[i - 1].UnionWith(sorted[i].rect);
      }
      suffix[total - 1] = sorted[total - 1].rect;
      for (size_t i = total - 1; i-- > 0;) {
        suffix[i] = suffix[i + 1].UnionWith(sorted[i].rect);
      }
      for (size_t split = min_fill; split <= total - min_fill; ++split) {
        const Rect& bb1 = prefix[split - 1];
        const Rect& bb2 = suffix[split];
        margin_sum += bb1.Margin() + bb2.Margin();
        const double overlap = bb1.IntersectionArea(bb2);
        const double area = bb1.Area() + bb2.Area();
        if (overlap < axis_best.overlap ||
            (overlap == axis_best.overlap && area < axis_best.area)) {
          axis_best = Candidate{axis, by_upper, split, overlap, area};
        }
      }
    }
    best_margin_sum[axis] = margin_sum;
    best_per_axis[axis] = axis_best;
  }

  const Candidate chosen = best_margin_sum[0] <= best_margin_sum[1]
                               ? best_per_axis[0]
                               : best_per_axis[1];

  // Re-sort by the chosen key and distribute.
  std::sort(sorted.begin(), sorted.end(),
            [&chosen](const RTreeEntry& a, const RTreeEntry& b) {
              const double ka =
                  chosen.axis == 0
                      ? (chosen.by_upper ? a.rect.xu : a.rect.xl)
                      : (chosen.by_upper ? a.rect.yu : a.rect.yl);
              const double kb =
                  chosen.axis == 0
                      ? (chosen.by_upper ? b.rect.xu : b.rect.xl)
                      : (chosen.by_upper ? b.rect.yu : b.rect.yl);
              if (ka != kb) return ka < kb;
              return a.id < b.id;
            });
  RTreeNode sibling;
  sibling.level = n.level;
  sibling.entries.assign(sorted.begin() + static_cast<long>(chosen.split),
                         sorted.end());
  n.entries.assign(sorted.begin(),
                   sorted.begin() + static_cast<long>(chosen.split));
  const Rect sibling_mbr = sibling.ComputeMbr();
  const uint32_t sibling_page = AllocateNode(std::move(sibling));
  return RTreeEntry{sibling_mbr, sibling_page};
}

size_t RStarTree::FindChildIndex(uint32_t parent_page,
                                 uint32_t child_page) const {
  const RTreeNode& parent = node(parent_page);
  for (size_t i = 0; i < parent.entries.size(); ++i) {
    if (parent.entries[i].child_page() == child_page) {
      return i;
    }
  }
  PSJ_CHECK(false) << "child" << child_page << "not found in parent"
                   << parent_page;
  return 0;
}

bool RStarTree::FindLeafPath(uint32_t page_no, const Rect& rect, uint64_t oid,
                             std::vector<uint32_t>* path) const {
  path->push_back(page_no);
  const RTreeNode& n = node(page_no);
  if (n.is_leaf()) {
    for (const RTreeEntry& entry : n.entries) {
      if (entry.id == oid && entry.rect == rect) {
        return true;
      }
    }
  } else {
    for (const RTreeEntry& entry : n.entries) {
      if (entry.rect.Contains(rect) &&
          FindLeafPath(entry.child_page(), rect, oid, path)) {
        return true;
      }
    }
  }
  path->pop_back();
  return false;
}

bool RStarTree::Delete(const Rect& rect, uint64_t oid) {
  // Checked in every build, as in Insert.
  PSJ_CHECK(phase_ == TreePhase::kMutable)
      << "Delete on a sealed tree; call Thaw() before mutating";
  std::vector<uint32_t> path;
  if (!FindLeafPath(root_page_, rect, oid, &path)) {
    return false;
  }
  // Remove the entry from the leaf.
  {
    RTreeNode& leaf = mutable_node(path.back());
    auto it = std::find_if(leaf.entries.begin(), leaf.entries.end(),
                           [&](const RTreeEntry& e) {
                             return e.id == oid && e.rect == rect;
                           });
    PSJ_CHECK(it != leaf.entries.end());
    leaf.entries.erase(it);
  }
  --num_data_entries_;

  // Condense the tree: dissolve underfull nodes bottom-up, collecting their
  // entries (with levels) for reinsertion.
  std::vector<std::pair<int, RTreeEntry>> orphans;
  for (size_t i = path.size(); i-- > 1;) {
    const uint32_t page = path[i];
    RTreeNode& n = mutable_node(page);
    if (n.entries.size() < MinFillFor(n.level)) {
      const int level = n.level;
      for (const RTreeEntry& e : n.entries) {
        orphans.emplace_back(level, e);
      }
      RTreeNode& parent = mutable_node(path[i - 1]);
      parent.entries.erase(parent.entries.begin() +
                           static_cast<long>(FindChildIndex(path[i - 1],
                                                            page)));
      FreeNode(page);
    } else {
      RTreeNode& parent = mutable_node(path[i - 1]);
      parent.entries[FindChildIndex(path[i - 1], page)].rect = n.ComputeMbr();
    }
  }

  // Shrink the root while it is a directory node with a single child.
  while (height_ > 1 && node(root_page_).entries.size() == 1) {
    const uint32_t old_root = root_page_;
    root_page_ = node(root_page_).entries[0].child_page();
    FreeNode(old_root);
    --height_;
  }
  if (height_ > 1 && node(root_page_).entries.empty()) {
    // Root lost all entries (every child dissolved): collapse to an empty
    // leaf so invariants hold.
    const uint32_t old_root = root_page_;
    RTreeNode empty_leaf;
    empty_leaf.level = 0;
    root_page_ = AllocateNode(std::move(empty_leaf));
    FreeNode(old_root);
    height_ = 1;
  }

  // Reinsert orphaned entries, higher levels first so their target level
  // still exists.
  std::stable_sort(orphans.begin(), orphans.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  for (const auto& [level, entry] : orphans) {
    std::vector<bool> reinserted(static_cast<size_t>(height_), false);
    if (level == 0) {
      InsertAtLevel(entry, 0, &reinserted);
    } else {
      // A directory entry can only be reinserted at its own level; if the
      // tree shrank below that, grow logic is handled by inserting at the
      // highest possible level.
      const int target = std::min(level, height_ - 1);
      if (target == level) {
        InsertAtLevel(entry, level, &reinserted);
      } else {
        // Tree shrank: descend into the subtree and reinsert its data
        // entries individually (rare; keeps the structure valid).
        std::vector<uint32_t> stack = {entry.child_page()};
        while (!stack.empty()) {
          const uint32_t p = stack.back();
          stack.pop_back();
          const RTreeNode sub = node(p);
          FreeNode(p);
          for (const RTreeEntry& e : sub.entries) {
            if (sub.is_leaf()) {
              std::vector<bool> flags(static_cast<size_t>(height_), false);
              InsertAtLevel(e, 0, &flags);
            } else {
              stack.push_back(e.child_page());
            }
          }
        }
      }
    }
  }
  return true;
}

std::vector<uint64_t> RStarTree::WindowQuery(const Rect& window) const {
  const NodeSoACache& cache = sealed();
  std::vector<uint64_t> result;
  std::vector<uint32_t> stack = {root_page_};
  // Per-node entry filtering runs the intra-node scan kernel over the
  // node's planes in place; the hit indices come back ascending,
  // preserving the scalar traversal order.
  thread_local std::vector<uint32_t> hits;
  while (!stack.empty()) {
    const NodeSoAView node = cache.view(stack.back());
    stack.pop_back();
    ScanIntersecting(node.rects, window, &hits);
    for (const uint32_t k : hits) {
      if (node.is_leaf()) {
        result.push_back(node.ids[k]);
      } else {
        stack.push_back(node.child_page(k));
      }
    }
  }
  return result;
}

std::vector<RStarTree::Neighbor> RStarTree::KnnQuery(const Point& query,
                                                     size_t k) const {
  const NodeSoACache& cache = sealed();
  std::vector<Neighbor> result;
  if (k == 0) {
    return result;
  }
  // Best-first search: a min-heap over MINDIST of pending nodes and data
  // entries. A data entry popped from the heap is guaranteed nearest among
  // everything unexplored.
  struct HeapItem {
    double dist_sq;
    bool is_data;
    uint32_t page;       // Valid when !is_data.
    uint64_t object_id;  // Valid when is_data.
  };
  const auto later = [](const HeapItem& a, const HeapItem& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    if (a.is_data != b.is_data) return !a.is_data && b.is_data;
    return a.object_id > b.object_id;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(later)> heap(
      later);
  heap.push(HeapItem{0.0, false, root_page_, 0});
  while (!heap.empty() && result.size() < k) {
    const HeapItem item = heap.top();
    heap.pop();
    if (item.is_data) {
      result.push_back(Neighbor{item.object_id, std::sqrt(item.dist_sq)});
      continue;
    }
    const NodeSoAView node = cache.view(item.page);
    for (size_t i = 0; i < node.size(); ++i) {
      const double dist_sq = MinDistSq(query, node.rects.rect(i));
      if (node.is_leaf()) {
        heap.push(HeapItem{dist_sq, true, 0, node.ids[i]});
      } else {
        heap.push(HeapItem{dist_sq, false, node.child_page(i), 0});
      }
    }
  }
  return result;
}

RTreeShapeStats RStarTree::ComputeShapeStats() const {
  RTreeShapeStats stats;
  stats.height = height_;
  stats.num_data_entries = num_data_entries_;
  stats.root_mbr = root_mbr();
  int64_t data_fill = 0;
  int64_t dir_fill = 0;
  for (uint32_t p = 1; p < num_pages(); ++p) {
    if (IsFreePage(p)) continue;
    const RTreeNode n = ReadNode(p);
    if (n.is_leaf()) {
      ++stats.num_data_pages;
      data_fill += static_cast<int64_t>(n.size());
    } else {
      ++stats.num_dir_pages;
      dir_fill += static_cast<int64_t>(n.size());
    }
  }
  if (stats.num_data_pages > 0) {
    stats.avg_data_fill =
        static_cast<double>(data_fill) /
        (static_cast<double>(stats.num_data_pages) *
         static_cast<double>(options_.max_data_entries));
  }
  if (stats.num_dir_pages > 0) {
    stats.avg_dir_fill =
        static_cast<double>(dir_fill) /
        (static_cast<double>(stats.num_dir_pages) *
         static_cast<double>(options_.max_dir_entries));
  }
  return stats;
}

Status RStarTree::PackToPageFile(PageFile* file) const {
  PSJ_CHECK(file != nullptr);
  if (file->num_pages() != 0) {
    return Status::InvalidArgument("page file must be empty");
  }
  for (uint32_t p = 0; p < num_pages(); ++p) {
    file->AllocatePage();
  }
  // Metadata page.
  PageData meta_page;
  meta_page.fill(std::byte{0});
  const TreeMeta meta{kTreeMagic, root_page_,          height_,
                      num_data_entries_, tree_id_, num_pages()};
  std::memcpy(meta_page.data(), &meta, sizeof(meta));
  file->WritePage(0, meta_page);

  PageData page;
  for (uint32_t p = 1; p < num_pages(); ++p) {
    if (IsFreePage(p)) {
      page.fill(std::byte{0});
      const uint16_t marker = kFreePageLevelMarker;
      std::memcpy(page.data(), &marker, sizeof(marker));
    } else {
      PackNode(ReadNode(p), &page);
    }
    file->WritePage(p, page);
  }
  return Status::OK();
}

StatusOr<RStarTree> RStarTree::LoadFromPageFile(const PageFile& file,
                                                RTreeOptions options) {
  if (file.num_pages() == 0) {
    return Status::InvalidArgument("empty page file");
  }
  TreeMeta meta;
  std::memcpy(&meta, file.ReadPage(0).data(), sizeof(meta));
  if (meta.magic != kTreeMagic) {
    return Status::Corruption("bad tree magic in metadata page");
  }
  if (meta.num_pages != file.num_pages()) {
    return Status::Corruption("page count mismatch in metadata");
  }
  if (meta.root_page == 0 || meta.root_page >= meta.num_pages) {
    return Status::Corruption("root page out of range");
  }
  std::vector<RTreeNode> nodes(meta.num_pages);
  std::vector<uint32_t> free_pages;
  for (uint32_t p = 1; p < meta.num_pages; ++p) {
    const PageData& page = file.ReadPage(p);
    uint16_t level;
    std::memcpy(&level, page.data(), sizeof(level));
    if (level == kFreePageLevelMarker) {
      free_pages.push_back(p);
      continue;
    }
    PSJ_ASSIGN_OR_RETURN(nodes[p], UnpackNode(page));
  }
  return FromNodes(meta.tree_id, std::move(nodes), meta.root_page,
                   meta.height, meta.num_data_entries, std::move(free_pages),
                   options);
}

RStarTree RStarTree::FromNodes(uint32_t tree_id, std::vector<RTreeNode> nodes,
                               uint32_t root_page, int height,
                               int64_t num_data_entries,
                               std::vector<uint32_t> free_pages,
                               RTreeOptions options) {
  RStarTree tree(tree_id, options);
  PSJ_CHECK_GE(nodes.size(), 2u);
  PSJ_CHECK_GT(root_page, 0u);
  PSJ_CHECK_LT(root_page, nodes.size());
  tree.nodes_ = std::move(nodes);
  tree.is_free_.assign(tree.nodes_.size(), false);
  tree.is_free_[0] = true;
  tree.free_pages_.clear();
  for (uint32_t p : free_pages) {
    PSJ_CHECK_GT(p, 0u);
    PSJ_CHECK_LT(p, tree.nodes_.size());
    tree.is_free_[p] = true;
    tree.free_pages_.push_back(p);
  }
  tree.root_page_ = root_page;
  tree.height_ = height;
  tree.num_data_entries_ = num_data_entries;
  tree.Seal();
  return tree;
}

}  // namespace psj
