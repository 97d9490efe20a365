#include "data/map_builder.h"

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

}  // namespace psj
