// Native multicore backend tests: both real-thread engines (the R-tree
// join and the grid-partition competitor) must produce candidate sets
// identical to SequentialRTreeJoin (and the brute-force oracle) at every
// thread count, emit no duplicate pairs, and — in deterministic mode —
// return bit-identical vectors across repeated runs and thread counts.
// This file carries the ctest label `native` and is the suite the CI
// `native` job runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "core/experiment.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "native/native_join.h"
#include "native/partition_join.h"
#include "obs/metrics.h"
#include "rtree/str_loader.h"
#include "util/rng.h"

namespace psj {
namespace {

using native::CollectLeafEntries;
using native::NativeJoinConfig;
using native::NativeJoinResult;
using native::NativeRTreeJoin;
using native::PairSetsEqual;
using native::PartitionJoinConfig;
using native::PartitionSweepJoin;
using native::SortPairs;
using Pair = std::pair<uint64_t, uint64_t>;

std::set<Pair> AsSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

// Sorted copy: equal sorted vectors mean equal sets *and* multiplicities.
std::vector<Pair> Sorted(std::vector<Pair> pairs) {
  SortPairs(&pairs);
  return pairs;
}

// Every intersecting (r, s) id pair, by a nested loop over Rect::Intersects.
std::vector<Pair> BruteForcePairs(const std::vector<RTreeEntry>& r,
                                  const std::vector<RTreeEntry>& s) {
  std::vector<Pair> pairs;
  for (const RTreeEntry& a : r) {
    for (const RTreeEntry& b : s) {
      if (a.rect.Intersects(b.rect)) {
        pairs.emplace_back(a.id, b.id);
      }
    }
  }
  return Sorted(std::move(pairs));
}

Rect RandomRect(Rng& rng, double extent) {
  const double x = rng.NextDoubleInRange(0.0, 1.0);
  const double y = rng.NextDoubleInRange(0.0, 1.0);
  return Rect(x, y, x + rng.NextDoubleInRange(0.0, extent),
              y + rng.NextDoubleInRange(0.0, extent));
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

NativeJoinResult RunPartition(const std::vector<RTreeEntry>& entries_r,
                              const std::vector<RTreeEntry>& entries_s,
                              int threads, int grid_dim = 0) {
  PartitionJoinConfig config;
  config.num_threads = threads;
  config.grid_dim = grid_dim;
  return PartitionSweepJoin(entries_r, entries_s, config);
}

NativeJoinResult RunPartition(const JoinFixture& fixture, int threads,
                              int grid_dim = 0) {
  return RunPartition(CollectLeafEntries(fixture.tree_r),
                      CollectLeafEntries(fixture.tree_s), threads, grid_dim);
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
  empty.Seal();
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

TEST(NativeJoinTest, PartitionWithMoreWorkersThanChunks) {
  // Inputs of 3 and 2 entries are one chunk each, so at 8 threads most
  // workers claim nothing in any phase; they must still pass every barrier.
  const std::vector<RTreeEntry> r = {{Rect(0.0, 0.0, 0.4, 0.4), 1},
                                     {Rect(0.3, 0.3, 0.7, 0.7), 2},
                                     {Rect(0.8, 0.8, 0.9, 0.9), 3}};
  const std::vector<RTreeEntry> s = {{Rect(0.35, 0.35, 0.5, 0.5), 10},
                                     {Rect(0.9, 0.9, 1.0, 1.0), 11}};
  const std::vector<Pair> expected = BruteForcePairs(r, s);
  ASSERT_EQ(expected, (std::vector<Pair>{{1, 10}, {2, 10}, {3, 11}}));
  for (const int threads : {1, 2, 8}) {
    for (const int grid_dim : {0, 3}) {
      EXPECT_EQ(Sorted(RunPartition(r, s, threads, grid_dim).candidates),
                expected)
          << threads << " threads, grid " << grid_dim;
    }
  }
}

TEST(NativeJoinTest, PartitionLongInputsSpanManyChunks) {
  // 40,000 entries are five chunks per input, so workers claim several
  // chunks each in every phase. A 10,000-entry run of equal xl in both
  // inputs crosses a chunk boundary and ties throughout the tile sorts.
  constexpr uint64_t kEntries = 40000;
  Rng rng(33);
  std::vector<RTreeEntry> r;
  std::vector<RTreeEntry> s;
  for (uint64_t i = 0; i < kEntries; ++i) {
    Rect a = RandomRect(rng, 0.002);
    Rect b = RandomRect(rng, 0.002);
    if (i >= 12000 && i < 22000) {
      a = Rect(0.5, a.yl, 0.5 + a.Width(), a.yu);
      b = Rect(0.5, b.yl, 0.5 + b.Width(), b.yu);
    }
    r.push_back({a, i});
    s.push_back({b, i});
  }
  const std::vector<Pair> sequential = Sorted(
      SequentialRTreeJoin(BuildStrTree(1, r), BuildStrTree(2, s)).candidates);
  ASSERT_GT(sequential.size(), kEntries) << "the equal-xl runs must meet";
  for (const int threads : {1, 4, 8}) {
    EXPECT_EQ(Sorted(RunPartition(r, s, threads).candidates), sequential)
        << threads << " threads";
  }
}

TEST(NativeJoinTest, PartitionInputPastTheChunkLimit) {
  // Past 64 chunks of 8,192 entries an input's chunks grow instead of
  // multiplying: 600,000 entries make 64 chunks of 9,375.
  constexpr uint64_t kEntries = 600000;
  Rng rng(38);
  std::vector<RTreeEntry> r;
  std::vector<RTreeEntry> s;
  r.reserve(kEntries);
  s.reserve(50);
  for (uint64_t i = 0; i < kEntries; ++i) {
    r.push_back({RandomRect(rng, 0.001), i});
  }
  for (uint64_t i = 0; i < 50; ++i) {
    s.push_back({RandomRect(rng, 0.05), i});
  }
  const std::vector<Pair> expected = BruteForcePairs(r, s);
  ASSERT_GT(expected.size(), 1000u);
  for (const int threads : {1, 4}) {
    EXPECT_EQ(Sorted(RunPartition(r, s, threads).candidates), expected)
        << threads << " threads";
  }
}

TEST(NativeJoinTest, PartitionReportsBoundaryTouchingPairsOnce) {
  // Rects on the universe [0, 1]^2 whose edges lie exactly on the tile
  // boundaries of grids 2, 4 and 8: cells of side 1/8 against cells of
  // side 1/4, zero-width lines along the boundaries and points at the
  // corners. Boundaries are closed, so cells sharing only an edge or a
  // corner intersect, and the reference point gives each pair one tile.
  std::vector<RTreeEntry> r;
  std::vector<RTreeEntry> s;
  uint64_t id = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 8; ++j) {
      r.push_back({Rect(i / 8.0, j / 8.0, (i + 1) / 8.0, (j + 1) / 8.0),
                   id++});
    }
  }
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      s.push_back({Rect(i / 4.0, j / 4.0, (i + 1) / 4.0, (j + 1) / 4.0),
                   id++});
    }
  }
  for (int k = 0; k <= 4; ++k) {
    s.push_back({Rect(k / 4.0, 0.0, k / 4.0, 1.0), id++});
    s.push_back({Rect(0.0, k / 4.0, 1.0, k / 4.0), id++});
    for (int j = 0; j <= 4; ++j) {
      s.push_back({Rect(k / 4.0, j / 4.0, k / 4.0, j / 4.0), id++});
    }
  }
  const std::vector<Pair> expected = BruteForcePairs(r, s);
  for (const int grid_dim : {0, 2, 4, 8}) {
    for (const int threads : {1, 4}) {
      EXPECT_EQ(Sorted(RunPartition(r, s, threads, grid_dim).candidates),
                expected)
          << "grid " << grid_dim << ", " << threads << " threads";
    }
  }
}

TEST(NativeJoinTest, PartitionRectCoveringEveryTile) {
  // One rect spans the universe, so it is replicated into every tile and
  // meets every rect of the other input; each pair is still reported once.
  JoinFixture fixture(600, 600, 35);
  std::vector<RTreeEntry> r = CollectLeafEntries(fixture.tree_r);
  const std::vector<RTreeEntry> s = CollectLeafEntries(fixture.tree_s);
  r.push_back({Rect(-1.0, -1.0, 2.0, 2.0), uint64_t{1} << 40});
  const std::vector<Pair> expected = BruteForcePairs(r, s);
  ASSERT_GE(expected.size(), s.size());
  for (const int threads : {1, 4}) {
    for (const int grid_dim : {0, 8}) {
      EXPECT_EQ(Sorted(RunPartition(r, s, threads, grid_dim).candidates),
                expected)
          << threads << " threads, grid " << grid_dim;
    }
  }
}

TEST(NativeJoinTest, PartitionHandlesInfiniteAndHugeCoordinates) {
  // A +-inf coordinate makes the universe infinite on its axis: the grid's
  // scale there is 0 and the tile offset inf * 0 = NaN. The tile
  // arithmetic must stay defined (the sanitize preset checks
  // float-cast-overflow) and still place every rect where the reference
  // point finds it. The +-1e300 square keeps the universe finite but huge.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Rect> specials = {Rect(-inf, 0.2, inf, 0.21),
                                      Rect(0.5, -inf, 0.51, inf),
                                      Rect(-1e300, -1e300, 1e300, 1e300)};
  // Each special alone (one infinite or huge axis), then all three.
  const std::vector<std::vector<Rect>> cases = {
      {specials[0]}, {specials[1]}, {specials[2]}, specials};
  for (size_t c = 0; c < cases.size(); ++c) {
    Rng rng(36);
    RStarTree tree_r(1);
    RStarTree tree_s(2);
    for (uint64_t i = 0; i < 200; ++i) {
      tree_r.Insert(RandomRect(rng, 0.05), i);
      tree_s.Insert(RandomRect(rng, 0.05), i);
    }
    for (size_t k = 0; k < cases[c].size(); ++k) {
      tree_r.Insert(cases[c][k], 1000 + k);
      tree_s.Insert(cases[c][k], 2000 + k);
    }
    tree_r.Seal();
    tree_s.Seal();
    const std::vector<RTreeEntry> r = CollectLeafEntries(tree_r);
    const std::vector<RTreeEntry> s = CollectLeafEntries(tree_s);
    const std::vector<Pair> sequential =
        Sorted(SequentialRTreeJoin(tree_r, tree_s).candidates);
    ASSERT_EQ(sequential, BruteForcePairs(r, s)) << "case " << c;
    for (const int threads : {1, 4}) {
      EXPECT_EQ(Sorted(RunPartition(r, s, threads).candidates), sequential)
          << "case " << c << ", " << threads << " threads";
    }
  }
}

TEST(NativeJoinTest, PartitionIgnoresNaNEntries) {
  // A rect with a NaN coordinate intersects nothing, so adding such rects
  // to either input, first or last, must change neither the grid nor the
  // pairs.
  JoinFixture fixture(600, 600, 37);
  std::vector<RTreeEntry> r = CollectLeafEntries(fixture.tree_r);
  std::vector<RTreeEntry> s = CollectLeafEntries(fixture.tree_s);
  const std::vector<Pair> expected = Sorted(RunPartition(r, s, 1).candidates);
  ASSERT_GT(expected.size(), 0u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Rect> nan_rects = {
      Rect(nan, nan, nan, nan), Rect(nan, 0.2, 0.3, 0.4),
      Rect(0.1, nan, 0.3, 0.4), Rect(0.1, 0.2, nan, 0.4),
      Rect(0.1, 0.2, 0.3, nan), Rect(-1.0, -1.0, 2.0, nan)};
  // A sweep takes x-overlap from the sort order, so a rect with a NaN xu
  // that starts inside a rect of the other input would be paired with it
  // if it reached a tile. Inside the leftmost rect it would: a NaN xu maps
  // to tile column 0, where the leftmost rect lies.
  const auto leftmost = [](const std::vector<RTreeEntry>& entries) {
    return std::min_element(entries.begin(), entries.end(),
                            [](const RTreeEntry& a, const RTreeEntry& b) {
                              return a.rect.xl < b.rect.xl;
                            })
        ->rect;
  };
  const Rect left_r = leftmost(r);
  const Rect left_s = leftmost(s);
  ASSERT_GT(left_r.Width(), 0.0);
  ASSERT_GT(left_s.Width(), 0.0);
  uint64_t id = uint64_t{1} << 40;
  r.insert(r.begin(), RTreeEntry{Rect(nan, -1.0, 2.0, 2.0), id++});
  r.push_back({Rect(left_s.xl + left_s.Width() / 2, left_s.yl, nan,
                    left_s.yu),
               id++});
  s.push_back({Rect(left_r.xl + left_r.Width() / 2, left_r.yl, nan,
                    left_r.yu),
               id++});
  for (const Rect& rect : nan_rects) {
    r.push_back({rect, id++});
    s.push_back({rect, id++});
  }
  for (const int threads : {1, 4}) {
    for (const int grid_dim : {0, 4}) {
      const std::vector<Pair> with_nan =
          Sorted(RunPartition(r, s, threads, grid_dim).candidates);
      EXPECT_EQ(with_nan, expected)
          << threads << " threads, grid " << grid_dim;
    }
  }
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
  tree_r.Seal();
  tree_s.Seal();
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
  const std::vector<Pair> sequential = Sorted(
      SequentialRTreeJoin(fixture.tree_r, fixture.tree_r).candidates);
  NativeJoinConfig config;
  config.num_threads = 4;
  const NativeJoinResult result =
      NativeRTreeJoin(fixture.tree_r, fixture.tree_r, config);
  EXPECT_EQ(AsSet(result.candidates), AsSet(sequential));
  // The partition engine gets the same vector as both inputs: two tile
  // buffers filled from one input.
  const std::vector<RTreeEntry> entries = CollectLeafEntries(fixture.tree_r);
  for (const int threads : {1, 4}) {
    EXPECT_EQ(Sorted(RunPartition(entries, entries, threads).candidates),
              sequential)
        << threads << " threads";
  }
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
  for (const int threads : {1, 4, 8}) {
    const NativeJoinResult partition = RunPartition(fixture, threads);
    EXPECT_GT(partition.num_tasks, 0);
    int64_t tiles = 0;
    int64_t emitted = 0;
    for (const auto& w : partition.per_worker) {
      tiles += w.tasks_executed;
      emitted += w.candidates;
    }
    // Every tile is claimed exactly once, by one worker.
    EXPECT_EQ(tiles, partition.num_tasks) << threads << " threads";
    EXPECT_EQ(emitted, static_cast<int64_t>(partition.candidates.size()))
        << threads << " threads";
    EXPECT_EQ(partition.per_worker.size(), static_cast<size_t>(threads));
  }
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
