#ifndef PSJ_RTREE_NODE_SOA_H_
#define PSJ_RTREE_NODE_SOA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// The entries a view holds, in index order, with the same doubles and
/// ids: how RStarTree::Thaw() rebuilds the data nodes Seal() released.
std::vector<RTreeEntry> EntriesOf(const NodeSoAView& view);

/// \brief Per-tree image of every node, one heap block per live page,
/// built once after construction (RStarTree::Seal).
///
/// A node of n entries owns one block of untyped storage: the xl, yl, xu
/// and yu planes of PaddedLanes(n) lanes each, their lanes past n filled
/// with the RectBatch sentinels, then the n ids, then the n-byte x-order.
/// So the intra-node kernels (geo/node_scan.h) read what
/// RectSoAView::padded allows inside the node's own block. A sealed tree
/// keeps no other image of its data nodes: Seal() releases their AoS
/// entries as it writes each block.
class NodeSoACache {
 public:
  /// Most entries a node may hold: x-order indices are single bytes.
  static constexpr size_t kMaxEntries = 256;

  /// (Re)builds the image of every live page of `nodes`; pages flagged in
  /// `is_free` get empty views. Releases nothing: `nodes` stay as given.
  void Build(const std::vector<RTreeNode>& nodes,
             const std::vector<bool>& is_free);

  /// Drops every block and sizes the cache for `num_pages` empty pages.
  void Reset(size_t num_pages);

  /// Writes the block of page `page_no` < num_pages() from `node`, which
  /// must hold at most kMaxEntries entries; the one transposition routine
  /// of Build and RStarTree::Seal.
  void Store(uint32_t page_no, const RTreeNode& node);

  NodeSoAView view(uint32_t page_no) const {
    const Page& page = pages_[page_no];
    const double* const xl = page.planes;
    return NodeSoAView{RectSoAView{xl, xl + page.padded, xl + 2 * page.padded,
                                   xl + 3 * page.padded, page.count,
                                   page.padded},
                       page.ids, page.mbr, page.x_order, page.level};
  }

  size_t num_pages() const { return pages_.size(); }

  /// Bytes of every live page's block: the image's size without per-page
  /// bookkeeping or allocator overhead.
  size_t block_bytes() const;

 private:
  /// Bytes of the block of a node of `count` entries.
  static size_t BlockBytes(size_t count);

  struct Page {
    std::unique_ptr<std::byte[]> block;  // Null for a free page.
    // The objects Store created in the block: the four planes as one
    // array, then the ids and the x-order.
    const double* planes = nullptr;
    const uint64_t* ids = nullptr;
    const uint8_t* x_order = nullptr;
    Rect mbr = Rect::Empty();
    uint32_t count = 0;   // Real entries.
    uint32_t padded = 0;  // PaddedLanes(count); 0 for a free page.
    int16_t level = 0;
  };

  std::vector<Page> pages_;
};

}  // namespace psj

#endif  // PSJ_RTREE_NODE_SOA_H_
