// Concurrency-contract suite (DESIGN.md §14).
//
// 1. The sealed-state phase contract: Insert and Delete on a Seal()ed
//    RStarTree abort until Thaw() — death tests that run in every build,
//    since both check the phase with PSJ_CHECK — and Thaw() re-enables
//    mutation.
// 2. The annotated util::Mutex/MutexLock/CondVar wrappers are pure
//    forwarders: wrapping every host-threaded subsystem's locks must not
//    change a single bit of any result. Five repeated runs of the
//    deterministic native join and of the serving layer's Execute path
//    must be bit-identical.
#include <gtest/gtest.h>

#include <vector>

#include "data/generator.h"
#include "data/map_builder.h"
#include "native/native_join.h"
#include "rtree/rstar_tree.h"
#include "serve/query.h"
#include "serve/service.h"

namespace psj {
namespace {

RStarTree BuildSmallTree(uint32_t id, uint64_t seed, int count = 300) {
  return BuildTreeFromObjects(
      id, GenerateUniformSegments(seed, count, 0.02).objects());
}

using PhaseDeathTest = ::testing::Test;

TEST(PhaseDeathTest, InsertOnSealedTreeAborts) {
  RStarTree tree = BuildSmallTree(1, 11);
  ASSERT_NE(tree.soa(), nullptr);  // BuildTreeFromObjects seals.
  ASSERT_EQ(tree.phase(), RStarTree::TreePhase::kSealed);
  EXPECT_DEATH(tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 9999),
               "call Thaw\\(\\) before mutating");  // psj-lint: phase-ok(death test asserts the abort)
}

TEST(PhaseDeathTest, DeleteOnSealedTreeAborts) {
  const ObjectStore objects = GenerateUniformSegments(12, 300, 0.02);
  RStarTree tree = BuildTreeFromObjects(1, objects.objects());
  const Rect victim = objects.Get(0).Mbr();
  EXPECT_DEATH(tree.Delete(victim, 0),
               "call Thaw\\(\\) before mutating");  // psj-lint: phase-ok(death test asserts the abort)
}

TEST(PhaseDeathTest, ThawReenablesMutation) {
  RStarTree tree = BuildSmallTree(1, 13);
  ASSERT_EQ(tree.phase(), RStarTree::TreePhase::kSealed);
  tree.Thaw();
  ASSERT_EQ(tree.phase(), RStarTree::TreePhase::kMutable);
  tree.Insert(Rect(0.1, 0.1, 0.2, 0.2), 9999);  // Must not abort.
  EXPECT_EQ(tree.soa(), nullptr);               // Mutation dropped the cache.
  tree.Seal();
  EXPECT_NE(tree.soa(), nullptr);
  EXPECT_EQ(tree.phase(), RStarTree::TreePhase::kSealed);
}

// Five runs of the deterministic native join must return bit-identical
// candidate vectors: the annotated mutex wrappers (work pool, service) and
// the memory-order tightenings must not perturb any result.
TEST(WrapperIdentityTest, DeterministicNativeJoinIsBitIdenticalAcrossRuns) {
  const RStarTree tree_r = BuildTreeFromObjects(
      1, GenerateUniformSegments(21, 1500, 0.01).objects());
  const RStarTree tree_s = BuildTreeFromObjects(
      2, GenerateUniformSegments(22, 1500, 0.02).objects());
  native::NativeJoinConfig config;
  config.num_threads = 4;
  config.deterministic = true;
  const native::NativeJoinResult first =
      native::NativeRTreeJoin(tree_r, tree_s, config);
  ASSERT_FALSE(first.candidates.empty());
  for (int run = 1; run < 5; ++run) {
    const native::NativeJoinResult again =
        native::NativeRTreeJoin(tree_r, tree_s, config);
    ASSERT_EQ(first.candidates, again.candidates) << "run " << run;
  }
}

// Same contract through the serving layer: repeated window queries against
// an idle service return identical id vectors (worker pool, admission
// queue, and condition-variable handoffs all behind util::Mutex).
TEST(WrapperIdentityTest, ServiceExecuteIsBitIdenticalAcrossRuns) {
  const RStarTree tree_r = BuildSmallTree(1, 31, 800);
  const RStarTree tree_s = BuildSmallTree(2, 32, 800);
  serve::ServiceConfig config;
  config.num_threads = 2;
  serve::SpatialQueryService service(&tree_r, &tree_s, config);
  service.Start();
  const serve::QueryDescriptor window = serve::QueryDescriptor::Window(
      Rect(0.2, 0.2, 0.7, 0.7), serve::TreeTarget::kTreeR);
  const serve::QueryResult first = service.Execute(window);
  ASSERT_EQ(first.status, serve::QueryStatus::kOk);
  ASSERT_FALSE(first.ids.empty());
  for (int run = 1; run < 5; ++run) {
    const serve::QueryResult again = service.Execute(window);
    ASSERT_EQ(first.ids, again.ids) << "run " << run;
    ASSERT_EQ(again.status, serve::QueryStatus::kOk);
  }
  service.Stop();
}

}  // namespace
}  // namespace psj
