#include "data/map_builder.h"

#include <string>

namespace psj {

RStarTree BuildTreeFromObjects(uint32_t tree_id,
                               ObjectRange objects,
                               TreeBuildMethod method, RTreeOptions options,
                               double str_fill) {
  if (method == TreeBuildMethod::kStr) {
    std::vector<RTreeEntry> entries;
    entries.reserve(objects.size());
    for (const MapObject& obj : objects) {
      entries.push_back(RTreeEntry{obj.Mbr(), obj.id});
    }
    StrLoadOptions load;
    load.fill_fraction = str_fill;
    return BuildStrTree(tree_id, entries, load, options);
  }
  RStarTree tree(tree_id, options);
  for (const MapObject& obj : objects) {
    tree.Insert(obj.Mbr(), obj.id);
  }
  tree.Seal();
  return tree;
}

Status CheckTreeMatchesStore(const RStarTree& tree, const ObjectStore& store) {
  const std::string tree_name = "tree " + std::to_string(tree.tree_id());
  const std::string objects = std::to_string(store.size()) + " objects";
  uint64_t entries = 0;
  // Page 0 is the metadata page; data pages are level 0.
  for (uint32_t page = 1; page < tree.num_pages(); ++page) {
    const NodeSoAView node = tree.sealed().view(page);
    if (tree.IsFreePage(page) || !node.is_leaf()) {
      continue;
    }
    entries += node.size();
    for (size_t i = 0; i < node.size(); ++i) {
      if (node.ids[i] >= store.size()) {
        return Status::Corruption(tree_name + " names object " +
                                  std::to_string(node.ids[i]) +
                                  " of a store of " + objects);
      }
    }
  }
  if (entries != store.size()) {
    return Status::Corruption(tree_name + " holds " + std::to_string(entries) +
                              " entries for a store of " + objects);
  }
  return Status::OK();
}

}  // namespace psj
