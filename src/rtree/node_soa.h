#ifndef PSJ_RTREE_NODE_SOA_H_
#define PSJ_RTREE_NODE_SOA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/rect.h"
#include "geo/rect_batch.h"
#include "rtree/node.h"

namespace psj {

/// \brief One node's cached SoA image: the sentinel-padded coordinate
/// planes (RectBatch conventions), the entry ids alongside (child pages in
/// a directory node, object ids in a data node), the node MBR precomputed
/// with the exact ExpandToInclude fold of RTreeNode::ComputeMbr — so
/// descent paths neither re-transpose the entries nor re-fold the MBR —
/// the entries' plane-sweep order and the node's level. Everything a query
/// or join asks of a node.
struct NodeSoAView {
  RectSoAView rects;
  const uint64_t* ids = nullptr;
  Rect mbr = Rect::Empty();
  /// The `size()` entry indices in (xl, index) order, NaN keys last: the
  /// permutation SortedOrderByXl gives over `rects`, so the join sweeps a
  /// node without sorting it (BatchSweepJoinViews).
  const uint8_t* x_order = nullptr;
  /// 0 for a data node; the root is at height()-1.
  int16_t level = 0;

  size_t size() const { return rects.size; }
  bool is_leaf() const { return level == 0; }
  uint32_t child_page(size_t i) const { return static_cast<uint32_t>(ids[i]); }
};

/// \brief The entry indices of `node` in (xl, id) order, NaN keys last
/// (-0.0 and +0.0 tie; full ties by index): the order in which the joins'
/// height alignment and the simulated window query expand one node's
/// children. A strict weak order for every double, unlike comparing the xl
/// values themselves, which std::sort cannot use once a NaN appears.
std::vector<uint32_t> ChildOrderByXl(const NodeSoAView& node);

/// \brief Per-tree cache of every node's SoA image, built once after bulk
/// construction (RStarTree::Seal).
///
/// All nodes share four flat coordinate planes plus one id plane; each node
/// owns a private kBlock-aligned segment padded with sentinel lanes, so the
/// intra-node kernels (geo/node_scan.h) may read full blocks past a node's
/// last entry without touching a neighbour's coordinates. A fifth, unpadded
/// plane holds every node's x-order, one byte per entry.
class NodeSoACache {
 public:
  /// Most entries a node may hold: x-order indices are single bytes.
  static constexpr size_t kMaxEntries = 256;

  /// (Re)builds the planes for every live page of `nodes`; pages flagged in
  /// `is_free` get empty views. Every live node must hold at most
  /// kMaxEntries entries.
  void Build(const std::vector<RTreeNode>& nodes,
             const std::vector<bool>& is_free);

  NodeSoAView view(uint32_t page_no) const {
    const Segment& seg = segments_[page_no];
    return NodeSoAView{
        RectSoAView{xl_.data() + seg.offset, yl_.data() + seg.offset,
                    xu_.data() + seg.offset, yu_.data() + seg.offset,
                    seg.count, seg.padded},
        ids_.data() + seg.offset, seg.mbr, x_order_.data() + seg.order_offset,
        seg.level};
  }

  size_t num_pages() const { return segments_.size(); }

 private:
  struct Segment {
    size_t offset = 0;        // First lane of this node in the shared planes.
    size_t order_offset = 0;  // First byte of this node in x_order_.
    size_t count = 0;         // Real entries.
    size_t padded = 0;        // Lanes including the sentinel tail.
    Rect mbr = Rect::Empty();
    int16_t level = 0;
  };

  std::vector<Segment> segments_;
  std::vector<double> xl_;
  std::vector<double> yl_;
  std::vector<double> xu_;
  std::vector<double> yu_;
  std::vector<uint64_t> ids_;
  std::vector<uint8_t> x_order_;
};

}  // namespace psj

#endif  // PSJ_RTREE_NODE_SOA_H_
