#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/parallel_join.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"

namespace psj {
namespace {

using Pair = std::pair<uint64_t, uint64_t>;

std::set<Pair> AsSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

// Shared scaled-down version of the paper's setup, built once.
class ParallelJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Geography geo = Geography::Generate(100, 40);
    StreetsSpec streets;
    streets.num_objects = 2'500;
    MixedSpec mixed;
    mixed.num_objects = 2'000;
    store_r_ = new ObjectStore(GenerateStreetsMap(geo, streets));
    store_s_ = new ObjectStore(GenerateMixedMap(geo, mixed));
    tree_r_ = new RStarTree(BuildTreeFromObjects(1, store_r_->objects()));
    tree_s_ = new RStarTree(BuildTreeFromObjects(2, store_s_->objects()));
    const auto sequential = SequentialRTreeJoin(*tree_r_, *tree_s_);
    expected_candidates_ = new std::set<Pair>(AsSet(sequential.candidates));
    const auto brute = BruteForceObjectJoin(*store_r_, *store_s_);
    ASSERT_EQ(*expected_candidates_, AsSet(brute.candidates))
        << "sequential join disagrees with brute force";
    expected_answers_ = new std::set<Pair>(AsSet(brute.answers));
  }

  static void TearDownTestSuite() {
    delete expected_candidates_;
    delete expected_answers_;
    delete tree_r_;
    delete tree_s_;
    delete store_r_;
    delete store_s_;
    expected_candidates_ = nullptr;
    expected_answers_ = nullptr;
    tree_r_ = tree_s_ = nullptr;
    store_r_ = store_s_ = nullptr;
  }

  static JoinResult MustRun(const ParallelJoinConfig& config) {
    ParallelSpatialJoin join(tree_r_, tree_s_, store_r_, store_s_);
    auto result = join.Run(config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  static ObjectStore* store_r_;
  static ObjectStore* store_s_;
  static RStarTree* tree_r_;
  static RStarTree* tree_s_;
  static std::set<Pair>* expected_candidates_;
  static std::set<Pair>* expected_answers_;
};

ObjectStore* ParallelJoinTest::store_r_ = nullptr;
ObjectStore* ParallelJoinTest::store_s_ = nullptr;
RStarTree* ParallelJoinTest::tree_r_ = nullptr;
RStarTree* ParallelJoinTest::tree_s_ = nullptr;
std::set<Pair>* ParallelJoinTest::expected_candidates_ = nullptr;
std::set<Pair>* ParallelJoinTest::expected_answers_ = nullptr;

TEST_F(ParallelJoinTest, SingleProcessorMatchesSequential) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 1;
  config.num_disks = 1;
  config.total_buffer_pages = 100;
  config.collect_pairs = true;
  const JoinResult result = MustRun(config);
  EXPECT_EQ(AsSet(result.candidate_pairs), *expected_candidates_);
  EXPECT_EQ(AsSet(result.answer_pairs), *expected_answers_);
  EXPECT_EQ(result.stats.total_candidates,
            static_cast<int64_t>(expected_candidates_->size()));
}

TEST_F(ParallelJoinTest, DeterministicAcrossRuns) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 6;
  config.num_disks = 6;
  config.total_buffer_pages = 300;
  const JoinResult a = MustRun(config);
  const JoinResult b = MustRun(config);
  EXPECT_EQ(a.stats.response_time, b.stats.response_time);
  EXPECT_EQ(a.stats.total_disk_accesses, b.stats.total_disk_accesses);
  EXPECT_EQ(a.stats.total_task_time, b.stats.total_task_time);
  for (size_t i = 0; i < a.stats.per_processor.size(); ++i) {
    EXPECT_EQ(a.stats.per_processor[i].last_work_time,
              b.stats.per_processor[i].last_work_time);
    EXPECT_EQ(a.stats.per_processor[i].candidates,
              b.stats.per_processor[i].candidates);
  }
}

// Every combination of buffer/assignment/reassignment/victim must produce
// exactly the sequential candidate and answer sets.
struct VariantParam {
  BufferType buffer;
  TaskAssignment assignment;
  ReassignmentLevel reassignment;
  VictimPolicy victim;
};

class ParallelJoinVariantTest
    : public ParallelJoinTest,
      public ::testing::WithParamInterface<VariantParam> {};

TEST_P(ParallelJoinVariantTest, CandidatesAndAnswersMatchSequential) {
  const VariantParam& param = GetParam();
  ParallelJoinConfig config;
  config.buffer_type = param.buffer;
  config.assignment = param.assignment;
  config.reassignment = param.reassignment;
  config.victim_policy = param.victim;
  config.num_processors = 7;  // Deliberately not a divisor of anything.
  config.num_disks = 4;
  config.total_buffer_pages = 210;
  config.collect_pairs = true;
  const JoinResult result = MustRun(config);
  EXPECT_EQ(AsSet(result.candidate_pairs), *expected_candidates_)
      << config.Describe();
  EXPECT_EQ(AsSet(result.answer_pairs), *expected_answers_)
      << config.Describe();
  EXPECT_EQ(result.candidate_pairs.size(), expected_candidates_->size())
      << "duplicates under " << config.Describe();
}

// The derived accounting fields must be consistent for every buffer /
// assignment / reassignment variant: response time is the slowest
// processor's finish time, idle time is exactly the non-busy remainder of
// each processor's active window (task creation counts as busy on cpu 0),
// and the per-processor disk queue waits partition the aggregate.
TEST_P(ParallelJoinVariantTest, DerivedStatsInvariants) {
  const VariantParam& param = GetParam();
  ParallelJoinConfig config;
  config.buffer_type = param.buffer;
  config.assignment = param.assignment;
  config.reassignment = param.reassignment;
  config.victim_policy = param.victim;
  config.num_processors = 7;
  config.num_disks = 4;
  config.total_buffer_pages = 210;
  const JoinStats stats = MustRun(config).stats;

  sim::SimTime max_finish = 0;
  sim::SimTime idle_sum = 0;
  sim::SimTime queue_wait_sum = 0;
  for (size_t i = 0; i < stats.per_processor.size(); ++i) {
    const ProcessorStats& p = stats.per_processor[i];
    max_finish = std::max(max_finish, p.last_work_time);
    const sim::SimTime non_idle =
        p.busy_time + (i == 0 ? stats.task_creation_time : 0);
    EXPECT_EQ(p.idle_time,
              std::max<sim::SimTime>(p.last_work_time - non_idle, 0))
        << "cpu " << i << " under " << config.Describe();
    EXPECT_GE(p.idle_time, 0) << "cpu " << i;
    EXPECT_LE(p.idle_time, p.last_work_time) << "cpu " << i;
    // Queue waits happen inside disk reads, which happen inside tasks.
    EXPECT_LE(p.disk_queue_wait, p.busy_time + stats.task_creation_time)
        << "cpu " << i << " under " << config.Describe();
    idle_sum += p.idle_time;
    queue_wait_sum += p.disk_queue_wait;
  }
  EXPECT_EQ(stats.response_time, max_finish) << config.Describe();
  EXPECT_EQ(stats.total_idle_time, idle_sum) << config.Describe();
  EXPECT_EQ(stats.total_disk_wait, queue_wait_sum) << config.Describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelJoinVariantTest,
    ::testing::Values(
        VariantParam{BufferType::kLocal, TaskAssignment::kStaticRange,
                     ReassignmentLevel::kNone, VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kLocal, TaskAssignment::kStaticRange,
                     ReassignmentLevel::kRootLevel,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kLocal, TaskAssignment::kStaticRange,
                     ReassignmentLevel::kAllLevels,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kLocal, TaskAssignment::kStaticRange,
                     ReassignmentLevel::kAllLevels, VictimPolicy::kArbitrary},
        VariantParam{BufferType::kGlobal, TaskAssignment::kStaticRoundRobin,
                     ReassignmentLevel::kNone, VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kGlobal, TaskAssignment::kStaticRoundRobin,
                     ReassignmentLevel::kRootLevel,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kGlobal, TaskAssignment::kStaticRoundRobin,
                     ReassignmentLevel::kAllLevels, VictimPolicy::kArbitrary},
        VariantParam{BufferType::kGlobal, TaskAssignment::kDynamic,
                     ReassignmentLevel::kNone, VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kGlobal, TaskAssignment::kDynamic,
                     ReassignmentLevel::kRootLevel, VictimPolicy::kArbitrary},
        VariantParam{BufferType::kGlobal, TaskAssignment::kDynamic,
                     ReassignmentLevel::kAllLevels,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kLocal, TaskAssignment::kDynamic,
                     ReassignmentLevel::kAllLevels,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kGlobal, TaskAssignment::kStaticRange,
                     ReassignmentLevel::kAllLevels,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kSharedNothing, TaskAssignment::kDynamic,
                     ReassignmentLevel::kAllLevels,
                     VictimPolicy::kMostLoaded},
        VariantParam{BufferType::kSharedNothing,
                     TaskAssignment::kStaticRange,
                     ReassignmentLevel::kRootLevel,
                     VictimPolicy::kArbitrary}));

// Property sweep: for any configuration, two runs are bit-identical and
// the candidate count matches the reference — over several processor and
// disk shapes.
class ParallelJoinDeterminismSweep
    : public ParallelJoinTest,
      public ::testing::WithParamInterface<std::tuple<int, int>> {};

TEST_P(ParallelJoinDeterminismSweep, BitIdenticalAndCorrect) {
  const auto [processors, disks] = GetParam();
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.reassignment = ReassignmentLevel::kAllLevels;
  config.num_processors = processors;
  config.num_disks = disks;
  config.total_buffer_pages = static_cast<size_t>(40 * processors);
  const JoinResult a = MustRun(config);
  const JoinResult b = MustRun(config);
  EXPECT_EQ(a.stats.response_time, b.stats.response_time);
  EXPECT_EQ(a.stats.total_disk_accesses, b.stats.total_disk_accesses);
  EXPECT_EQ(a.stats.total_candidates,
            static_cast<int64_t>(expected_candidates_->size()));
  EXPECT_EQ(a.stats.total_answers,
            static_cast<int64_t>(expected_answers_->size()));
}

INSTANTIATE_TEST_SUITE_P(Shapes, ParallelJoinDeterminismSweep,
                         ::testing::Values(std::make_tuple(2, 1),
                                           std::make_tuple(3, 5),
                                           std::make_tuple(5, 2),
                                           std::make_tuple(9, 9),
                                           std::make_tuple(16, 4)));

TEST_F(ParallelJoinTest, HilbertPlacementPreservesResults) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 6;
  config.num_disks = 6;
  config.total_buffer_pages = 300;
  config.collect_pairs = true;
  config.placement = PagePlacement::kHilbertStriping;
  const JoinResult result = MustRun(config);
  EXPECT_EQ(AsSet(result.candidate_pairs), *expected_candidates_);

  // Placement changes timing but never the amount of I/O classes beyond
  // disk queueing.
  config.placement = PagePlacement::kModulo;
  const JoinResult modulo = MustRun(config);
  EXPECT_EQ(result.stats.total_candidates, modulo.stats.total_candidates);
}

TEST_F(ParallelJoinTest, SharedNothingPaysMessagingButSharesPages) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.buffer_type = BufferType::kSharedNothing;
  config.num_processors = 8;
  config.num_disks = 8;
  config.total_buffer_pages = 320;
  const auto sn = MustRun(config).stats;
  config.buffer_type = BufferType::kLocal;
  const auto local = MustRun(config).stats;
  // Owner-only buffering avoids duplicate disk reads, like the global
  // buffer.
  EXPECT_LT(sn.total_disk_accesses, local.total_disk_accesses);
  EXPECT_GT(sn.total_remote_hits, 0);
}

TEST_F(ParallelJoinTest, MoreProcessorsReduceResponseTime) {
  ParallelJoinConfig base = ParallelJoinConfig::Gd();
  base.num_processors = 1;
  base.num_disks = 1;
  base.total_buffer_pages = 100;
  const auto t1 = MustRun(base).stats.response_time;

  ParallelJoinConfig wide = ParallelJoinConfig::Gd();
  wide.num_processors = 8;
  wide.num_disks = 8;
  wide.total_buffer_pages = 800;
  const auto t8 = MustRun(wide).stats.response_time;

  EXPECT_LT(t8, t1);
  // Speed-up cannot exceed n.
  EXPECT_GT(t8 * 8 + 8, t1 / 2);  // Loose lower bound: speedup <= 16 here.
}

TEST_F(ParallelJoinTest, SingleDiskBottlenecksParallelism) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.total_buffer_pages = 400;
  config.num_processors = 4;
  config.num_disks = 4;
  const auto t_4disks = MustRun(config).stats.response_time;
  config.num_disks = 1;
  const auto t_1disk = MustRun(config).stats.response_time;
  EXPECT_GT(t_1disk, t_4disks);
}

TEST_F(ParallelJoinTest, ReassignmentShrinksFinishSpread) {
  ParallelJoinConfig config = ParallelJoinConfig::Lsr();
  config.num_processors = 8;
  config.num_disks = 8;
  config.total_buffer_pages = 400;
  config.reassignment = ReassignmentLevel::kNone;
  const auto without = MustRun(config).stats;
  config.reassignment = ReassignmentLevel::kAllLevels;
  const auto with = MustRun(config).stats;
  const auto spread_without = without.response_time - without.first_finish;
  const auto spread_with = with.response_time - with.first_finish;
  EXPECT_LT(spread_with, spread_without);
  // Reassignment balances the finish times; the paper (§4.4) notes it may
  // cost some extra disk reads, so allow a small response-time regression.
  EXPECT_LE(with.response_time,
            without.response_time + without.response_time / 10);
}

TEST_F(ParallelJoinTest, GlobalBufferNeverReadsDiskMoreThanLocal) {
  ParallelJoinConfig local = ParallelJoinConfig::Lsr();
  local.num_processors = 8;
  local.num_disks = 8;
  local.total_buffer_pages = 320;
  ParallelJoinConfig global = local;
  global.buffer_type = BufferType::kGlobal;
  const auto local_stats = MustRun(local).stats;
  const auto global_stats = MustRun(global).stats;
  EXPECT_LE(global_stats.total_disk_accesses,
            local_stats.total_disk_accesses);
  EXPECT_GT(global_stats.total_remote_hits, 0);
  EXPECT_EQ(local_stats.total_remote_hits, 0);
}

TEST_F(ParallelJoinTest, LargerBufferMeansFewerDiskAccesses) {
  ParallelJoinConfig small = ParallelJoinConfig::Gd();
  small.num_processors = 4;
  small.num_disks = 4;
  small.total_buffer_pages = 40;
  ParallelJoinConfig large = small;
  large.total_buffer_pages = 2'000;
  EXPECT_GT(MustRun(small).stats.total_disk_accesses,
            MustRun(large).stats.total_disk_accesses);
}

TEST_F(ParallelJoinTest, TaskCreationDescendsForManyProcessors) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 16;
  config.num_disks = 16;
  config.total_buffer_pages = 800;
  config.task_creation_factor = 3.0;
  const auto stats = MustRun(config).stats;
  // Either enough tasks were created or the trees bottomed out at level 0.
  EXPECT_TRUE(stats.num_tasks >= 48 || stats.task_level == 0)
      << "m=" << stats.num_tasks << " level=" << stats.task_level;
}

TEST_F(ParallelJoinTest, StatsAreInternallyConsistent) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 6;
  config.num_disks = 6;
  config.total_buffer_pages = 300;
  const auto stats = MustRun(config).stats;
  int64_t candidate_sum = 0;
  int64_t disk_sum = 0;
  sim::SimTime max_finish = 0;
  for (const auto& p : stats.per_processor) {
    candidate_sum += p.candidates;
    disk_sum += p.buffer.disk_reads;
    max_finish = std::max(max_finish, p.last_work_time);
    EXPECT_LE(p.busy_time, p.last_work_time);
    EXPECT_GE(p.answers, 0);
    EXPECT_LE(p.answers, p.candidates);
  }
  EXPECT_EQ(candidate_sum, stats.total_candidates);
  EXPECT_EQ(disk_sum, stats.total_disk_accesses);
  EXPECT_EQ(max_finish, stats.response_time);
  EXPECT_GE(stats.response_time, stats.first_finish);
  EXPECT_GE(stats.avg_finish, stats.first_finish);
  EXPECT_LE(stats.avg_finish, stats.response_time);
  EXPECT_GT(stats.total_disk_accesses, 0);
  EXPECT_GT(stats.num_tasks, 0);
}

TEST_F(ParallelJoinTest, RefinementCanBeSkipped) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 4;
  config.compute_answers = false;
  const auto stats = MustRun(config).stats;
  EXPECT_EQ(stats.total_answers, 0);
  EXPECT_EQ(stats.total_candidates,
            static_cast<int64_t>(expected_candidates_->size()));
}

TEST_F(ParallelJoinTest, InvalidConfigsRejected) {
  ParallelSpatialJoin join(tree_r_, tree_s_, store_r_, store_s_);
  ParallelJoinConfig config;
  config.num_processors = 0;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
  config = ParallelJoinConfig();
  config.num_disks = -1;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
}

TEST_F(ParallelJoinTest, MissingStoresRejectedWhenAnswersRequested) {
  ParallelSpatialJoin join(tree_r_, tree_s_, nullptr, nullptr);
  ParallelJoinConfig config;
  config.compute_answers = true;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
  config.compute_answers = false;
  EXPECT_TRUE(join.Run(config).ok());
}

TEST_F(ParallelJoinTest, DuplicateTreeIdsRejected) {
  RStarTree clone(tree_r_->tree_id());
  ParallelSpatialJoin join(tree_r_, &clone, store_r_, store_s_);
  ParallelJoinConfig config;
  config.compute_answers = false;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
}

TEST_F(ParallelJoinTest, UnsealedTreeIsAFailedPrecondition) {
  RStarTree unsealed(7);
  unsealed.Insert(Rect(0.1, 0.1, 0.2, 0.2), 1);
  ParallelJoinConfig config;
  config.compute_answers = false;
  ParallelSpatialJoin join_r(tree_r_, &unsealed, nullptr, nullptr);
  EXPECT_TRUE(join_r.Run(config).status().IsFailedPrecondition());
  ParallelSpatialJoin join_s(&unsealed, tree_s_, nullptr, nullptr);
  EXPECT_TRUE(join_s.Run(config).status().IsFailedPrecondition());
  unsealed.Seal();
  EXPECT_TRUE(join_r.Run(config).ok());
}

TEST_F(ParallelJoinTest, SelfJoinRuns) {
  ParallelSpatialJoin join(tree_r_, tree_r_, store_r_, store_r_);
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 4;
  config.compute_answers = false;
  auto result = join.Run(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // At least the identity pairs qualify as candidates.
  EXPECT_GE(result->stats.total_candidates,
            static_cast<int64_t>(store_r_->size()));
}

TEST_F(ParallelJoinTest, MoreProcessorsThanTasksStillCorrect) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 24;
  config.num_disks = 24;
  config.total_buffer_pages = 2'400;
  config.task_creation_factor = 0.0;  // Stay at the root level: few tasks.
  config.collect_pairs = true;
  const JoinResult result = MustRun(config);
  EXPECT_EQ(AsSet(result.candidate_pairs), *expected_candidates_);
}

}  // namespace
}  // namespace psj
