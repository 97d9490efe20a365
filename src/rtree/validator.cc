#include "rtree/validator.h"

#include <vector>

#include "util/string_util.h"

namespace psj {

Status ValidateRTree(const RStarTree& tree, bool enforce_min_fill) {
  const uint32_t root = tree.root_page();
  if (root == 0 || root >= tree.num_pages() || tree.IsFreePage(root)) {
    return Status::Corruption("root page invalid or freed");
  }
  const int root_level = tree.ReadNode(root).level;
  if (root_level != tree.height() - 1) {
    return Status::Corruption(StringPrintf(
        "root level %d does not match height %d", root_level,
        tree.height()));
  }

  std::vector<int> reference_count(tree.num_pages(), 0);
  reference_count[root] = 1;
  int64_t data_entries = 0;

  std::vector<uint32_t> stack = {root};
  while (!stack.empty()) {
    const uint32_t page = stack.back();
    stack.pop_back();
    const RTreeNode n = tree.ReadNode(page);

    if (n.entries.size() > tree.CapacityFor(n.level)) {
      return Status::Corruption(
          StringPrintf("page %u exceeds capacity", page));
    }
    if (page == root) {
      if (tree.height() > 1 && n.entries.size() < 2) {
        return Status::Corruption("directory root has fewer than 2 entries");
      }
    } else if (enforce_min_fill &&
               n.entries.size() < tree.MinFillFor(n.level)) {
      return Status::Corruption(StringPrintf(
          "page %u underfull: %zu < %zu", page, n.entries.size(),
          tree.MinFillFor(n.level)));
    }

    for (const RTreeEntry& entry : n.entries) {
      if (!entry.rect.IsValid()) {
        return Status::Corruption(
            StringPrintf("invalid rect in page %u", page));
      }
      if (n.is_leaf()) {
        ++data_entries;
        continue;
      }
      const uint32_t child = entry.child_page();
      if (child == 0 || child >= tree.num_pages() || tree.IsFreePage(child)) {
        return Status::Corruption(StringPrintf(
            "page %u references invalid child %u", page, child));
      }
      if (++reference_count[child] > 1) {
        return Status::Corruption(
            StringPrintf("page %u referenced more than once", child));
      }
      const RTreeNode child_node = tree.ReadNode(child);
      if (child_node.level != n.level - 1) {
        return Status::Corruption(StringPrintf(
            "child %u at level %d under parent level %d", child,
            child_node.level, n.level));
      }
      if (!(entry.rect == child_node.ComputeMbr())) {
        return Status::Corruption(StringPrintf(
            "entry rect of child %u is not the child's MBR", child));
      }
      stack.push_back(child);
    }
  }

  for (uint32_t p = 1; p < tree.num_pages(); ++p) {
    if (!tree.IsFreePage(p) && reference_count[p] == 0) {
      return Status::Corruption(
          StringPrintf("live page %u unreachable from root", p));
    }
  }
  if (data_entries != tree.num_data_entries()) {
    return Status::Corruption(StringPrintf(
        "data entry count mismatch: found %lld, tree says %lld",
        static_cast<long long>(data_entries),
        static_cast<long long>(tree.num_data_entries())));
  }
  return Status::OK();
}

}  // namespace psj
