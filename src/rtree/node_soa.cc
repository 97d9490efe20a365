#include "rtree/node_soa.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace psj {

void NodeSoACache::Build(const std::vector<RTreeNode>& nodes,
                         const std::vector<bool>& is_free) {
  constexpr size_t kBlock = RectBatch::kBlock;
  const size_t num = nodes.size();
  segments_.assign(num, Segment{});
  size_t lanes = 0;
  size_t entries = 0;
  for (size_t p = 1; p < num; ++p) {
    if (is_free[p]) continue;
    Segment& seg = segments_[p];
    seg.offset = lanes;
    seg.order_offset = entries;
    seg.count = nodes[p].entries.size();
    seg.level = nodes[p].level;
    PSJ_CHECK_LE(seg.count, kMaxEntries) << "entries on page" << p;
    // Same padding rule as RectBatch::Resize: at least one whole spare
    // block, so kernels may read kBlock lanes from any index <= count.
    seg.padded = ((seg.count / kBlock) + 2) * kBlock;
    lanes += seg.padded;
    entries += seg.count;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  xl_.assign(lanes, kInf);   // Sentinels: terminate x-scans,
  yl_.assign(lanes, kInf);   // fail every y-overlap test,
  xu_.assign(lanes, -kInf);  // fail every clip test.
  yu_.assign(lanes, -kInf);
  ids_.assign(lanes, 0);
  x_order_.resize(entries);
  std::vector<uint32_t> order;
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  for (size_t p = 1; p < num; ++p) {
    if (is_free[p]) continue;
    Segment& seg = segments_[p];
    const RTreeNode& node = nodes[p];
    // The same ascending ExpandToInclude fold as RTreeNode::ComputeMbr, so
    // the cached MBR is bitwise equal to the on-demand one.
    Rect mbr = Rect::Empty();
    for (size_t i = 0; i < seg.count; ++i) {
      const RTreeEntry& entry = node.entries[i];
      xl_[seg.offset + i] = entry.rect.xl;
      yl_[seg.offset + i] = entry.rect.yl;
      xu_[seg.offset + i] = entry.rect.xu;
      yu_[seg.offset + i] = entry.rect.yu;
      ids_[seg.offset + i] = entry.id;
      mbr.ExpandToInclude(entry.rect);
    }
    seg.mbr = mbr;
    // The sweep order of the whole node; kMaxEntries keeps each index in
    // one byte.
    SortedOrderByXl(view(static_cast<uint32_t>(p)).rects, &order, &keys);
    for (size_t k = 0; k < seg.count; ++k) {
      x_order_[seg.order_offset + k] = static_cast<uint8_t>(order[k]);
    }
  }
}

std::vector<uint32_t> ChildOrderByXl(const NodeSoAView& node) {
  std::vector<uint32_t> order(node.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&node](uint32_t a, uint32_t b) {
    const uint64_t key_a = XlSortKey(node.rects.xl[a]);
    const uint64_t key_b = XlSortKey(node.rects.xl[b]);
    if (key_a != key_b) return key_a < key_b;
    if (node.ids[a] != node.ids[b]) return node.ids[a] < node.ids[b];
    return a < b;
  });
  return order;
}

}  // namespace psj
