#include "rtree/node_soa.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace psj {

void NodeSoACache::Build(const std::vector<RTreeNode>& nodes,
                         const std::vector<bool>& is_free) {
  Reset(nodes.size());
  for (size_t p = 1; p < nodes.size(); ++p) {
    if (!is_free[p]) Store(static_cast<uint32_t>(p), nodes[p]);
  }
}

void NodeSoACache::Reset(size_t num_pages) {
  pages_.clear();
  pages_.resize(num_pages);
}

size_t NodeSoACache::BlockBytes(size_t count) {
  return 4 * PaddedLanes(count) * sizeof(double) +
         count * (sizeof(uint64_t) + sizeof(uint8_t));
}

size_t NodeSoACache::block_bytes() const {
  size_t bytes = 0;
  for (const Page& page : pages_) {
    if (page.block != nullptr) bytes += BlockBytes(page.count);
  }
  return bytes;
}

void NodeSoACache::Store(uint32_t page_no, const RTreeNode& node) {
  const size_t count = node.entries.size();
  PSJ_CHECK_LE(count, kMaxEntries) << "entries on page" << page_no;
  const size_t padded = PaddedLanes(count);
  const size_t plane_bytes = 4 * padded * sizeof(double);
  const size_t id_bytes = count * sizeof(uint64_t);
  Page& page = pages_[page_no];
  page.block = std::make_unique_for_overwrite<std::byte[]>(
      BlockBytes(count));
  std::byte* const block = page.block.get();
  double* const xl = ::new (block) double[4 * padded];
  double* const yl = xl + padded;
  double* const xu = yl + padded;
  double* const yu = xu + padded;
  uint64_t* const ids = ::new (block + plane_bytes) uint64_t[count];
  uint8_t* const x_order =
      ::new (block + plane_bytes + id_bytes) uint8_t[count];
  // The same ascending ExpandToInclude fold as RTreeNode::ComputeMbr, so
  // the cached MBR is bitwise equal to the on-demand one.
  Rect mbr = Rect::Empty();
  for (size_t i = 0; i < count; ++i) {
    const RTreeEntry& entry = node.entries[i];
    xl[i] = entry.rect.xl;
    yl[i] = entry.rect.yl;
    xu[i] = entry.rect.xu;
    yu[i] = entry.rect.yu;
    ids[i] = entry.id;
    mbr.ExpandToInclude(entry.rect);
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t i = count; i < padded; ++i) {
    xl[i] = kInf;   // Sentinels: terminate x-scans,
    yl[i] = kInf;   // fail every y-overlap test,
    xu[i] = -kInf;  // fail every clip test.
    yu[i] = -kInf;
  }
  page.planes = xl;
  page.ids = ids;
  page.x_order = x_order;
  page.mbr = mbr;
  page.count = static_cast<uint32_t>(count);
  page.padded = static_cast<uint32_t>(padded);
  page.level = node.level;
  // The sweep order of the whole node; kMaxEntries keeps each index in one
  // byte.
  thread_local std::vector<uint32_t> order;
  thread_local std::vector<std::pair<uint64_t, uint32_t>> keys;
  SortedOrderByXl(view(page_no).rects, &order, &keys);
  for (size_t k = 0; k < count; ++k) {
    x_order[k] = static_cast<uint8_t>(order[k]);
  }
}

std::vector<RTreeEntry> EntriesOf(const NodeSoAView& view) {
  std::vector<RTreeEntry> entries(view.size());
  for (size_t i = 0; i < view.size(); ++i) {
    entries[i] = RTreeEntry{view.rects.rect(i), view.ids[i]};
  }
  return entries;
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
