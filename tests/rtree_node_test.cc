#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "rtree/node.h"

namespace psj {
namespace {

RTreeNode MakeDirNode(size_t entries) {
  RTreeNode node;
  node.level = 2;
  for (size_t i = 0; i < entries; ++i) {
    const double b = static_cast<double>(i);
    node.entries.push_back(
        RTreeEntry{Rect(b, b + 0.5, b + 1.0, b + 2.0), i + 100});
  }
  return node;
}

RTreeNode MakeLeafNode(size_t entries) {
  RTreeNode node;
  node.level = 0;
  for (size_t i = 0; i < entries; ++i) {
    const double b = static_cast<double>(i) * 0.1;
    node.entries.push_back(
        RTreeEntry{Rect(b, b, b + 0.01, b + 0.02), 0xdeadbeef00ULL + i});
  }
  return node;
}

TEST(RTreeNodeTest, ComputeMbrOfEntries) {
  const RTreeNode node = MakeDirNode(3);
  EXPECT_EQ(node.ComputeMbr(), Rect(0, 0.5, 3, 4));
  EXPECT_EQ(RTreeNode().ComputeMbr(), Rect::Empty());
}

TEST(RTreeNodeTest, DirNodeRoundTrip) {
  const RTreeNode node = MakeDirNode(kMaxDirEntries);
  PageData page;
  PackNode(node, &page);
  const auto unpacked = UnpackNode(page);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(unpacked->level, node.level);
  ASSERT_EQ(unpacked->entries.size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(unpacked->entries[i].rect, node.entries[i].rect);
    EXPECT_EQ(unpacked->entries[i].child_page(),
              node.entries[i].child_page());
  }
}

TEST(RTreeNodeTest, LeafNodeRoundTripKeeps64BitIds) {
  const RTreeNode node = MakeLeafNode(kMaxDataEntries);
  PageData page;
  PackNode(node, &page);
  const auto unpacked = UnpackNode(page);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_TRUE(unpacked->is_leaf());
  ASSERT_EQ(unpacked->entries.size(), node.entries.size());
  for (size_t i = 0; i < node.entries.size(); ++i) {
    EXPECT_EQ(unpacked->entries[i].object_id(), node.entries[i].object_id());
  }
}

TEST(RTreeNodeTest, EmptyNodeRoundTrip) {
  RTreeNode node;
  node.level = 0;
  PageData page;
  PackNode(node, &page);
  const auto unpacked = UnpackNode(page);
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(unpacked->entries.size(), 0u);
}

TEST(RTreeNodeTest, UnpackRejectsOverflowCount) {
  RTreeNode node = MakeLeafNode(1);
  PageData page;
  PackNode(node, &page);
  // Corrupt the count field beyond leaf capacity.
  const uint16_t bogus = 999;
  std::memcpy(page.data() + 2, &bogus, sizeof(bogus));
  EXPECT_TRUE(UnpackNode(page).status().IsCorruption());
}

TEST(RTreeNodeTest, UnpackRejectsInvalidRect) {
  RTreeNode node = MakeLeafNode(1);
  PageData page;
  PackNode(node, &page);
  // Make xl > xu in the first entry.
  const double bad = 1e9;
  std::memcpy(page.data() + kPageHeaderSize, &bad, sizeof(bad));
  EXPECT_TRUE(UnpackNode(page).status().IsCorruption());
  // A NaN in any coordinate (xl, yl, xu, yu) fails Rect::IsValid() too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t coord = 0; coord < 4; ++coord) {
    PackNode(node, &page);
    std::memcpy(page.data() + kPageHeaderSize + coord * sizeof(double), &nan,
                sizeof(nan));
    EXPECT_TRUE(UnpackNode(page).status().IsCorruption())
        << "NaN coordinate " << coord;
  }
  // Infinite coordinates still load: the whole plane is a valid rect.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  node.entries[0].rect = Rect(-kInf, -kInf, kInf, kInf);
  PackNode(node, &page);
  const StatusOr<RTreeNode> whole_plane = UnpackNode(page);
  ASSERT_TRUE(whole_plane.ok());
  EXPECT_EQ(whole_plane->entries[0].rect, node.entries[0].rect);
}

}  // namespace
}  // namespace psj
