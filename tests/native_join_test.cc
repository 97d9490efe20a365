// Native multicore backend tests: both real-thread engines (the R-tree
// join and the grid-partition competitor) must produce candidate sets
// identical to SequentialRTreeJoin (and the brute-force oracle) at every
// thread count, emit no duplicate pairs, and — in deterministic mode —
// return bit-identical vectors across repeated runs and thread counts.
// This file carries the ctest label `native` and is the suite the CI
// `native` job runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "native/native_join.h"
#include "native/partition_join.h"
#include "obs/metrics.h"

namespace psj {
namespace {

using native::CollectLeafEntries;
using native::NativeJoinConfig;
using native::NativeJoinResult;
using native::NativeRTreeJoin;
using native::PairSetsEqual;
using native::PartitionJoinConfig;
using native::PartitionSweepJoin;
using Pair = std::pair<uint64_t, uint64_t>;

std::set<Pair> AsSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

struct JoinFixture {
  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;

  JoinFixture(int count_r, int count_s, uint64_t seed,
              double extent_r = 0.01, double extent_s = 0.02)
      : store_r(GenerateUniformSegments(seed, count_r, extent_r)),
        store_s(GenerateUniformSegments(seed + 1, count_s, extent_s)),
        tree_r(BuildTreeFromObjects(1, store_r.objects())),
        tree_s(BuildTreeFromObjects(2, store_s.objects())) {}
};

NativeJoinResult RunNative(const JoinFixture& fixture, int threads,
                           bool deterministic = false) {
  NativeJoinConfig config;
  config.num_threads = threads;
  config.deterministic = deterministic;
  return NativeRTreeJoin(fixture.tree_r, fixture.tree_s, config);
}

NativeJoinResult RunPartition(const JoinFixture& fixture, int threads,
                              int grid_dim = 0) {
  PartitionJoinConfig config;
  config.num_threads = threads;
  config.grid_dim = grid_dim;
  return PartitionSweepJoin(CollectLeafEntries(fixture.tree_r),
                            CollectLeafEntries(fixture.tree_s), config);
}

TEST(NativeJoinTest, MatchesSequentialAndBruteForceAcrossThreadCounts) {
  JoinFixture fixture(900, 800, 21);
  const auto sequential =
      AsSet(SequentialRTreeJoin(fixture.tree_r, fixture.tree_s).candidates);
  const auto brute = BruteForceObjectJoin(fixture.store_r, fixture.store_s);
  ASSERT_EQ(sequential, AsSet(brute.candidates));
  for (const int threads : {1, 2, 4, 8}) {
    const NativeJoinResult result = RunNative(fixture, threads);
    EXPECT_EQ(AsSet(result.candidates), sequential) << threads << " threads";
    EXPECT_EQ(AsSet(result.candidates).size(), result.candidates.size())
        << "duplicates at " << threads << " threads";
  }
}

TEST(NativeJoinTest, PartitionMatchesSequentialAcrossThreadCounts) {
  JoinFixture fixture(900, 800, 22);
  const auto sequential =
      AsSet(SequentialRTreeJoin(fixture.tree_r, fixture.tree_s).candidates);
  for (const int threads : {1, 2, 4, 8}) {
    const NativeJoinResult result = RunPartition(fixture, threads);
    EXPECT_EQ(AsSet(result.candidates), sequential) << threads << " threads";
    EXPECT_EQ(AsSet(result.candidates).size(), result.candidates.size())
        << "duplicates at " << threads << " threads";
  }
}

TEST(NativeJoinTest, PartitionGridDimensionDoesNotChangeTheSet) {
  // Small grids force heavy replication across tiles; the reference-point
  // rule must still emit every pair exactly once.
  JoinFixture fixture(600, 600, 23);
  const auto sequential =
      AsSet(SequentialRTreeJoin(fixture.tree_r, fixture.tree_s).candidates);
  for (const int grid_dim : {1, 2, 5, 16}) {
    const NativeJoinResult result = RunPartition(fixture, 4, grid_dim);
    EXPECT_EQ(AsSet(result.candidates), sequential) << "grid " << grid_dim;
    EXPECT_EQ(AsSet(result.candidates).size(), result.candidates.size())
        << "duplicates with grid " << grid_dim;
  }
}

TEST(NativeJoinTest, EmptyInputsYieldNothing) {
  JoinFixture fixture(300, 20, 24);
  RStarTree empty(9);
  NativeJoinConfig config;
  config.num_threads = 4;
  EXPECT_TRUE(
      NativeRTreeJoin(fixture.tree_r, empty, config).candidates.empty());
  EXPECT_TRUE(CollectLeafEntries(empty).empty());
  PartitionJoinConfig partition_config;
  partition_config.num_threads = 4;
  EXPECT_TRUE(PartitionSweepJoin(CollectLeafEntries(fixture.tree_r),
                                 CollectLeafEntries(empty), partition_config)
                  .candidates.empty());
}

TEST(NativeJoinTest, SkewedInputMatchesSequential) {
  // Everything piled into one corner: one tile / one subtree carries almost
  // all the work, exercising the shared queue and the stealing path.
  const Rect corner(0.0, 0.0, 0.05, 0.05);
  ObjectStore store_r(GenerateUniformSegments(25, 700, 0.002, corner));
  ObjectStore store_s(GenerateUniformSegments(26, 700, 0.002, corner));
  RStarTree tree_r = BuildTreeFromObjects(1, store_r.objects());
  RStarTree tree_s = BuildTreeFromObjects(2, store_s.objects());
  const auto sequential = AsSet(SequentialRTreeJoin(tree_r, tree_s).candidates);
  ASSERT_GT(sequential.size(), 0u);
  NativeJoinConfig config;
  config.num_threads = 4;
  EXPECT_EQ(AsSet(NativeRTreeJoin(tree_r, tree_s, config).candidates),
            sequential);
  PartitionJoinConfig partition_config;
  partition_config.num_threads = 4;
  EXPECT_EQ(AsSet(PartitionSweepJoin(CollectLeafEntries(tree_r),
                                     CollectLeafEntries(tree_s),
                                     partition_config)
                      .candidates),
            sequential);
}

TEST(NativeJoinTest, DuplicateHeavyInputMatchesSequential) {
  // Many objects sharing the exact same MBR: worst case for the sweep's
  // tie-breaking and for tile replication (every copy lands in the same
  // tiles). The pair multiset must still match the sequential join's.
  RStarTree tree_r(1);
  RStarTree tree_s(2);
  for (int i = 0; i < 150; ++i) {
    const Rect shared(0.4, 0.4, 0.41, 0.41);
    tree_r.Insert(shared, static_cast<uint64_t>(i));
    tree_s.Insert(shared, static_cast<uint64_t>(i));
    const double at = 0.001 * i;
    tree_r.Insert(Rect(at, at, at + 0.002, at + 0.002), 1000 + i);
    tree_s.Insert(Rect(at + 0.001, at, at + 0.003, at + 0.002), 1000 + i);
  }
  const auto sequential_result = SequentialRTreeJoin(tree_r, tree_s);
  const auto sequential = AsSet(sequential_result.candidates);
  ASSERT_GE(sequential.size(), 150u * 150u);
  for (const int threads : {1, 4}) {
    NativeJoinConfig config;
    config.num_threads = threads;
    const NativeJoinResult result = NativeRTreeJoin(tree_r, tree_s, config);
    EXPECT_EQ(AsSet(result.candidates), sequential);
    EXPECT_EQ(result.candidates.size(), sequential_result.candidates.size());
    PartitionJoinConfig partition_config;
    partition_config.num_threads = threads;
    partition_config.grid_dim = 8;
    const NativeJoinResult partition = PartitionSweepJoin(
        CollectLeafEntries(tree_r), CollectLeafEntries(tree_s),
        partition_config);
    EXPECT_EQ(AsSet(partition.candidates), sequential);
    EXPECT_EQ(partition.candidates.size(),
              sequential_result.candidates.size());
  }
}

TEST(NativeJoinTest, SelfJoinMatchesSequential) {
  JoinFixture fixture(500, 10, 27);
  NativeJoinConfig config;
  config.num_threads = 4;
  const NativeJoinResult result =
      NativeRTreeJoin(fixture.tree_r, fixture.tree_r, config);
  EXPECT_EQ(AsSet(result.candidates),
            AsSet(SequentialRTreeJoin(fixture.tree_r, fixture.tree_r)
                      .candidates));
}

TEST(NativeJoinTest, DeterministicModeIsBitIdenticalAcrossRuns) {
  JoinFixture fixture(800, 800, 28);
  const NativeJoinResult first = RunNative(fixture, 4, /*deterministic=*/true);
  ASSERT_GT(first.candidates.size(), 0u);
  for (int run = 1; run < 5; ++run) {
    const NativeJoinResult again =
        RunNative(fixture, 4, /*deterministic=*/true);
    ASSERT_EQ(again.candidates, first.candidates) << "run " << run;
  }
}

TEST(NativeJoinTest, DeterministicModeIsBitIdenticalAcrossThreadCounts) {
  JoinFixture fixture(700, 700, 29);
  const NativeJoinResult reference =
      RunNative(fixture, 1, /*deterministic=*/true);
  for (const int threads : {2, 4, 8}) {
    EXPECT_EQ(RunNative(fixture, threads, /*deterministic=*/true).candidates,
              reference.candidates)
        << threads << " threads";
  }
  // The partition engine's deterministic mode sorts its exactly-once output,
  // so it is thread-count-invariant too (though a different algorithm, the
  // *set* — and hence the sorted vector — is the same).
  PartitionJoinConfig config;
  config.deterministic = true;
  const std::vector<RTreeEntry> entries_r =
      CollectLeafEntries(fixture.tree_r);
  const std::vector<RTreeEntry> entries_s =
      CollectLeafEntries(fixture.tree_s);
  config.num_threads = 1;
  const NativeJoinResult partition_reference =
      PartitionSweepJoin(entries_r, entries_s, config);
  EXPECT_EQ(partition_reference.candidates, reference.candidates);
  for (const int threads : {2, 4, 8}) {
    config.num_threads = threads;
    EXPECT_EQ(PartitionSweepJoin(entries_r, entries_s, config).candidates,
              partition_reference.candidates)
        << threads << " threads";
  }
}

TEST(NativeJoinTest, CountersAreConsistent) {
  JoinFixture fixture(900, 800, 30);
  const NativeJoinResult result = RunNative(fixture, 4);
  EXPECT_GT(result.num_tasks, 0);
  int64_t tasks = 0;
  int64_t candidates = 0;
  for (const auto& w : result.per_worker) {
    tasks += w.tasks_executed;
    candidates += w.candidates;
  }
  // Every task created (initial + pushed children) is executed exactly once.
  EXPECT_GE(tasks, result.num_tasks);
  EXPECT_EQ(tasks, result.node_pairs_processed);
  EXPECT_EQ(candidates, static_cast<int64_t>(result.candidates.size()));
  EXPECT_EQ(result.per_worker.size(), 4u);
  EXPECT_GE(result.wall_ms, 0.0);
}

TEST(NativeJoinTest, BusyTimeCountsSubMicrosecondTasks) {
  // Tasks on the paper maps take about a microsecond each; summing them
  // truncated to whole microseconds reported about half the wall time of
  // a 1-thread join that does little besides running tasks. The median
  // of five runs keeps one preempted run from deciding the outcome.
  const PaperWorkload workload(PaperWorkloadSpec().Scaled(0.05));
  std::vector<double> busy_fractions;
  for (int run = 0; run < 5; ++run) {
    NativeJoinConfig config;
    config.num_threads = 1;
    obs::MetricsRegistry registry(config.num_threads);
    config.metrics = &registry;
    const NativeJoinResult result =
        NativeRTreeJoin(workload.tree_r(), workload.tree_s(), config);
    int64_t busy_us = 0;
    for (const auto& w : result.per_worker) busy_us += w.busy_us;
    busy_fractions.push_back(static_cast<double>(busy_us) /
                             (result.wall_ms * 1000.0));
  }
  std::sort(busy_fractions.begin(), busy_fractions.end());
  EXPECT_GE(busy_fractions[2], 0.65);
  EXPECT_LE(busy_fractions[2], 1.0);
}

TEST(NativeJoinTest, PairSetsEqualCollapsesDuplicatesAndOrder) {
  EXPECT_TRUE(PairSetsEqual({{1, 2}, {3, 4}}, {{3, 4}, {1, 2}, {3, 4}}));
  EXPECT_FALSE(PairSetsEqual({{1, 2}}, {{2, 1}}));
  EXPECT_TRUE(PairSetsEqual({}, {}));
}

}  // namespace
}  // namespace psj
