#include <gtest/gtest.h>

#include <set>

#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"

namespace psj {
namespace {

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

TEST(SequentialJoinTest, MatchesBruteForceCandidates) {
  JoinFixture fixture(800, 700, 11);
  const auto result = SequentialRTreeJoin(fixture.tree_r, fixture.tree_s);
  const auto brute =
      BruteForceObjectJoin(fixture.store_r, fixture.store_s);
  EXPECT_EQ(AsSet(result.candidates), AsSet(brute.candidates));
  EXPECT_EQ(result.candidates.size(), brute.candidates.size())
      << "duplicate candidates emitted";
}

TEST(SequentialJoinTest, NoDuplicateCandidates) {
  JoinFixture fixture(1'000, 1'000, 12);
  const auto result = SequentialRTreeJoin(fixture.tree_r, fixture.tree_s);
  EXPECT_EQ(AsSet(result.candidates).size(), result.candidates.size());
}

TEST(SequentialJoinTest, TuningTechniquesDoNotChangeResult) {
  JoinFixture fixture(600, 600, 13);
  std::set<Pair> reference;
  bool first = true;
  for (bool restriction : {false, true}) {
    for (bool sweep : {false, true}) {
      SequentialJoinOptions options;
      options.match.use_search_space_restriction = restriction;
      options.match.use_plane_sweep = sweep;
      const auto result =
          SequentialRTreeJoin(fixture.tree_r, fixture.tree_s, options);
      if (first) {
        reference = AsSet(result.candidates);
        first = false;
      } else {
        EXPECT_EQ(AsSet(result.candidates), reference);
      }
    }
  }
}

TEST(SequentialJoinTest, TreesOfDifferentHeights) {
  // A large tree against a tiny one (single leaf after few inserts).
  JoinFixture fixture(2'000, 20, 14);
  ASSERT_GT(fixture.tree_r.height(), fixture.tree_s.height());
  const auto result = SequentialRTreeJoin(fixture.tree_r, fixture.tree_s);
  const auto brute = BruteForceObjectJoin(fixture.store_r, fixture.store_s);
  EXPECT_EQ(AsSet(result.candidates), AsSet(brute.candidates));
}

TEST(SequentialJoinTest, EmptyTreeYieldsNothing) {
  JoinFixture fixture(300, 20, 15);
  RStarTree empty(9);
  empty.Seal();
  const auto result = SequentialRTreeJoin(fixture.tree_r, empty);
  EXPECT_TRUE(result.candidates.empty());
}

TEST(SequentialJoinTest, SelfJoinContainsIdentityPairs) {
  JoinFixture fixture(400, 10, 16);
  const auto result = SequentialRTreeJoin(fixture.tree_r, fixture.tree_r);
  const auto pairs = AsSet(result.candidates);
  for (uint64_t i = 0; i < fixture.store_r.size(); ++i) {
    EXPECT_TRUE(pairs.count({i, i})) << "missing identity pair " << i;
  }
}

TEST(SequentialJoinTest, StrAndInsertionTreesGiveSameCandidates) {
  const ObjectStore store_r(GenerateUniformSegments(17, 900, 0.015));
  const ObjectStore store_s(GenerateUniformSegments(18, 900, 0.015));
  const RStarTree ins_r = BuildTreeFromObjects(1, store_r.objects());
  const RStarTree ins_s = BuildTreeFromObjects(2, store_s.objects());
  const RStarTree str_r =
      BuildTreeFromObjects(3, store_r.objects(), TreeBuildMethod::kStr);
  const RStarTree str_s =
      BuildTreeFromObjects(4, store_s.objects(), TreeBuildMethod::kStr);
  EXPECT_EQ(AsSet(SequentialRTreeJoin(ins_r, ins_s).candidates),
            AsSet(SequentialRTreeJoin(str_r, str_s).candidates));
}

TEST(SequentialJoinTest, AnswersAreSubsetOfCandidates) {
  JoinFixture fixture(500, 500, 19);
  const auto brute = BruteForceObjectJoin(fixture.store_r, fixture.store_s);
  const auto candidates = AsSet(brute.candidates);
  EXPECT_LE(brute.answers.size(), brute.candidates.size());
  for (const auto& answer : brute.answers) {
    EXPECT_TRUE(candidates.count(answer));
  }
}

TEST(SequentialJoinTest, GeneratedMapsJoinConsistently) {
  // Scaled-down versions of the paper's two maps.
  const Geography geo = Geography::Generate(100, 40);
  StreetsSpec streets;
  streets.num_objects = 1'200;
  MixedSpec mixed;
  mixed.num_objects = 1'000;
  const ObjectStore store_r(GenerateStreetsMap(geo, streets));
  const ObjectStore store_s(GenerateMixedMap(geo, mixed));
  const RStarTree tree_r = BuildTreeFromObjects(1, store_r.objects());
  const RStarTree tree_s = BuildTreeFromObjects(2, store_s.objects());
  const auto result = SequentialRTreeJoin(tree_r, tree_s);
  const auto brute = BruteForceObjectJoin(store_r, store_s);
  EXPECT_EQ(AsSet(result.candidates), AsSet(brute.candidates));
  EXPECT_GT(result.candidates.size(), 0u);
}

}  // namespace
}  // namespace psj
