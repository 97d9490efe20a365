#ifndef PSJ_RTREE_NODE_H_
#define PSJ_RTREE_NODE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/rect.h"
#include "storage/page.h"
#include "util/statusor.h"

namespace psj {

/// One slot of an R*-tree node: the MBR plus either the child page number
/// (directory node) or the object identifier (data node).
struct RTreeEntry {
  Rect rect;
  uint64_t id = 0;

  uint32_t child_page() const { return static_cast<uint32_t>(id); }
  uint64_t object_id() const { return id; }
};

/// \brief An R*-tree node, the in-memory image of one 4 KB page.
///
/// `level` 0 denotes a data (leaf) node; the root is at level height-1.
/// Capacity follows the paper's entry sizes: up to 102 entries in a
/// directory node and 26 in a data node. This is the build and persistence
/// image — insertion, splits, page packing and the validator use it — while
/// every query and join reads the sealed SoA image (rtree/node_soa.h).
struct RTreeNode {
  int16_t level = 0;
  std::vector<RTreeEntry> entries;

  bool is_leaf() const { return level == 0; }
  size_t size() const { return entries.size(); }

  /// Minimum bounding rectangle of all entries; Rect::Empty() when empty.
  Rect ComputeMbr() const;
};

/// Serializes a node into a 4 KB page image using the paper's layout
/// (16-byte header; 40-byte directory entries / 156-byte data entries).
/// Aborts if the node exceeds the page capacity.
void PackNode(const RTreeNode& node, PageData* page);

/// Parses a page image back into a node. Returns Corruption on a malformed
/// header (bad level or entry count exceeding the page capacity).
StatusOr<RTreeNode> UnpackNode(const PageData& page);

}  // namespace psj

#endif  // PSJ_RTREE_NODE_H_
