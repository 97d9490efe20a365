#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/experiment.h"
#include "rtree/validator.h"

namespace psj {
namespace {

PaperWorkloadSpec TinySpec() {
  PaperWorkloadSpec spec;
  return spec.Scaled(0.02);  // ~2.6k + 2.5k objects: fast.
}

TEST(PaperWorkloadSpecTest, ScalingAdjustsCounts) {
  const PaperWorkloadSpec base;
  const PaperWorkloadSpec half = base.Scaled(0.5);
  EXPECT_EQ(half.streets.num_objects, 65'722);
  EXPECT_EQ(half.mixed.num_objects, 63'656);
  EXPECT_EQ(half.num_centers, 140);
  // Per-object geometry is unchanged.
  EXPECT_EQ(half.streets.segment_length, base.streets.segment_length);
  const PaperWorkloadSpec tiny = base.Scaled(1e-9);
  EXPECT_GE(tiny.streets.num_objects, 1);
  EXPECT_GE(tiny.num_centers, 10);
}

TEST(PaperWorkloadTest, BuildsValidTrees) {
  const PaperWorkload workload(TinySpec());
  EXPECT_TRUE(ValidateRTree(workload.tree_r()).ok());
  EXPECT_TRUE(ValidateRTree(workload.tree_s()).ok());
  EXPECT_EQ(workload.tree_r().num_data_entries(),
            static_cast<int64_t>(workload.store_r().size()));
  EXPECT_GT(workload.CountRootTaskPairs(), 0);
}

TEST(PaperWorkloadTest, DescribeMatchesTable1Format) {
  const PaperWorkload workload(TinySpec());
  const std::string text = workload.DescribeTrees();
  EXPECT_NE(text.find("height"), std::string::npos);
  EXPECT_NE(text.find("number of data pages"), std::string::npos);
  EXPECT_NE(text.find("m (number of tasks)"), std::string::npos);
}

TEST(PaperWorkloadTest, RunJoinProducesResults) {
  const PaperWorkload workload(TinySpec());
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 4;
  config.total_buffer_pages = 200;
  auto result = workload.RunJoin(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.total_candidates, 0);
  EXPECT_GT(result->stats.response_time, 0);
}

}  // namespace
}  // namespace psj
