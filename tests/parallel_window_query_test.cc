#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "core/parallel_window_query.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace psj {
namespace {

class ParallelWindowQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const Geography geo = Geography::Generate(100, 40);
    StreetsSpec streets;
    streets.num_objects = 4'000;
    store_ = new ObjectStore(GenerateStreetsMap(geo, streets));
    tree_ = new RStarTree(BuildTreeFromObjects(1, store_->objects()));
  }

  static void TearDownTestSuite() {
    delete tree_;
    delete store_;
    tree_ = nullptr;
    store_ = nullptr;
  }

  static WindowQueryResult MustRun(const Rect& window,
                                   const WindowQueryConfig& config) {
    ParallelWindowQuery query(tree_, store_);
    auto result = query.Run(window, config);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  // Linear-scan references.
  static std::set<uint64_t> ExpectedCandidates(const Rect& window) {
    std::set<uint64_t> ids;
    for (const MapObject& obj : store_->objects()) {
      if (obj.Mbr().Intersects(window)) ids.insert(obj.id);
    }
    return ids;
  }
  static std::set<uint64_t> ExpectedAnswers(const Rect& window) {
    std::set<uint64_t> ids;
    for (const MapObject& obj : store_->objects()) {
      if (obj.Mbr().Intersects(window) &&
          obj.geometry.IntersectsRect(window)) {
        ids.insert(obj.id);
      }
    }
    return ids;
  }

  static ObjectStore* store_;
  static RStarTree* tree_;
};

ObjectStore* ParallelWindowQueryTest::store_ = nullptr;
RStarTree* ParallelWindowQueryTest::tree_ = nullptr;

const Rect kWindow(0.2, 0.2, 0.6, 0.55);

TEST_F(ParallelWindowQueryTest, MatchesLinearScan) {
  WindowQueryConfig config;
  config.num_processors = 6;
  config.num_disks = 6;
  config.total_buffer_pages = 120;
  config.collect_ids = true;
  const WindowQueryResult result = MustRun(kWindow, config);
  const std::set<uint64_t> candidates(result.candidate_ids.begin(),
                                      result.candidate_ids.end());
  EXPECT_EQ(candidates.size(), result.candidate_ids.size())
      << "duplicate candidates";
  EXPECT_EQ(candidates, ExpectedCandidates(kWindow));
  const std::set<uint64_t> answers(result.answer_ids.begin(),
                                   result.answer_ids.end());
  EXPECT_EQ(answers, ExpectedAnswers(kWindow));
  EXPECT_FALSE(candidates.empty());
}

TEST_F(ParallelWindowQueryTest, AgreesWithTreeWindowQuery) {
  WindowQueryConfig config;
  config.collect_ids = true;
  config.compute_answers = false;
  const WindowQueryResult result = MustRun(kWindow, config);
  auto tree_hits = tree_->WindowQuery(kWindow);
  std::sort(tree_hits.begin(), tree_hits.end());
  std::vector<uint64_t> parallel_hits = result.candidate_ids;
  std::sort(parallel_hits.begin(), parallel_hits.end());
  EXPECT_EQ(parallel_hits, tree_hits);
}

TEST_F(ParallelWindowQueryTest, AllVariantsProduceSameResult) {
  const std::set<uint64_t> expected = ExpectedCandidates(kWindow);
  for (BufferType buffer : {BufferType::kLocal, BufferType::kGlobal}) {
    for (TaskAssignment assignment :
         {TaskAssignment::kStaticRange, TaskAssignment::kStaticRoundRobin,
          TaskAssignment::kDynamic}) {
      for (ReassignmentLevel reassignment :
           {ReassignmentLevel::kNone, ReassignmentLevel::kAllLevels}) {
        WindowQueryConfig config;
        config.buffer_type = buffer;
        config.assignment = assignment;
        config.reassignment = reassignment;
        config.num_processors = 5;
        config.num_disks = 3;
        config.total_buffer_pages = 100;
        config.collect_ids = true;
        const WindowQueryResult result = MustRun(kWindow, config);
        const std::set<uint64_t> ids(result.candidate_ids.begin(),
                                     result.candidate_ids.end());
        EXPECT_EQ(ids, expected)
            << "buffer=" << static_cast<int>(buffer)
            << " assignment=" << static_cast<int>(assignment)
            << " reassignment=" << static_cast<int>(reassignment);
      }
    }
  }
}

TEST_F(ParallelWindowQueryTest, DeterministicAcrossRuns) {
  WindowQueryConfig config;
  config.num_processors = 8;
  config.num_disks = 4;
  const auto a = MustRun(kWindow, config);
  const auto b = MustRun(kWindow, config);
  EXPECT_EQ(a.stats.response_time, b.stats.response_time);
  EXPECT_EQ(a.stats.total_disk_accesses, b.stats.total_disk_accesses);
}

TEST_F(ParallelWindowQueryTest, ParallelismReducesResponseTime) {
  WindowQueryConfig narrow;
  narrow.num_processors = 1;
  narrow.num_disks = 1;
  narrow.total_buffer_pages = 100;
  const Rect big_window(0.0, 0.0, 1.0, 1.0);
  const auto t1 = MustRun(big_window, narrow).stats.response_time;
  WindowQueryConfig wide = narrow;
  wide.num_processors = 8;
  wide.num_disks = 8;
  wide.total_buffer_pages = 800;
  const auto t8 = MustRun(big_window, wide).stats.response_time;
  EXPECT_LT(t8, t1);
  EXPECT_GT(t8, t1 / 8 / 2);  // Speed-up cannot wildly exceed n.
}

TEST_F(ParallelWindowQueryTest, EmptyWindowRegionYieldsNothing) {
  WindowQueryConfig config;
  config.collect_ids = true;
  const WindowQueryResult result = MustRun(Rect(5.0, 5.0, 6.0, 6.0), config);
  EXPECT_TRUE(result.candidate_ids.empty());
  EXPECT_EQ(result.stats.total_candidates, 0);
}

TEST_F(ParallelWindowQueryTest, InvalidInputsRejected) {
  ParallelWindowQuery query(tree_, store_);
  WindowQueryConfig config;
  EXPECT_TRUE(query.Run(Rect(1, 1, 0, 0), config)
                  .status()
                  .IsInvalidArgument());
  config.num_processors = 0;
  EXPECT_TRUE(query.Run(kWindow, config).status().IsInvalidArgument());

  ParallelWindowQuery no_store(tree_, nullptr);
  WindowQueryConfig wants_answers;
  EXPECT_TRUE(
      no_store.Run(kWindow, wants_answers).status().IsInvalidArgument());
  wants_answers.compute_answers = false;
  EXPECT_TRUE(no_store.Run(kWindow, wants_answers).ok());

  // The cost model is checked as the join checks it: an inverted
  // refinement range is rejected, not charged as negative virtual time.
  WindowQueryConfig inverted_costs;
  inverted_costs.costs.refine_min = 5'000;
  inverted_costs.costs.refine_max = -5'000;
  EXPECT_TRUE(query.Run(kWindow, inverted_costs).status().IsInvalidArgument());
}

// The window query's virtual time over a grid of machine configurations:
// every statistic (JoinStats::WriteJson covers each ProcessorStats field
// and every aggregate) and every collected id carry one pinned
// fingerprint, so a change to the simulated machine that moves any of
// them fails here.
TEST_F(ParallelWindowQueryTest, VirtualTimeIsPinned) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // 64-bit FNV-1a.
  const auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  int runs = 0;
  int64_t candidates = 0;
  int64_t answers = 0;
  int64_t steals = 0;
  for (const BufferType buffer :
       {BufferType::kLocal, BufferType::kGlobal, BufferType::kSharedNothing}) {
    for (const TaskAssignment assignment :
         {TaskAssignment::kStaticRange, TaskAssignment::kStaticRoundRobin,
          TaskAssignment::kDynamic}) {
      for (const ReassignmentLevel reassignment :
           {ReassignmentLevel::kNone, ReassignmentLevel::kRootLevel,
            ReassignmentLevel::kAllLevels}) {
        for (const PagePlacement placement :
             {PagePlacement::kModulo, PagePlacement::kHilbertStriping}) {
          for (const int n : {1, 5}) {
            WindowQueryConfig config;
            config.buffer_type = buffer;
            config.assignment = assignment;
            config.reassignment = reassignment;
            config.placement = placement;
            config.num_processors = n;
            config.num_disks = n;
            config.total_buffer_pages = 40 * static_cast<size_t>(n);
            config.collect_ids = true;
            const WindowQueryResult result = MustRun(kWindow, config);
            JsonWriter out;
            result.stats.WriteJson(out);
            mix(out.str());
            for (const auto* ids : {&result.candidate_ids, &result.answer_ids}) {
              for (const uint64_t id : *ids) {
                mix(StringPrintf("%llu;", static_cast<unsigned long long>(id)));
              }
              mix("|");
            }
            ++runs;
            candidates += result.stats.total_candidates;
            answers += result.stats.total_answers;
            for (const ProcessorStats& stats : result.stats.per_processor) {
              steals += stats.pairs_stolen;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(runs, 108);
  EXPECT_EQ(candidates, 78'192);
  EXPECT_EQ(answers, 78'192);
  EXPECT_EQ(steals, 88);
  EXPECT_EQ(hash, 0x91de7490f2d901e1ULL);
}

TEST_F(ParallelWindowQueryTest, UnsealedTreeIsAFailedPrecondition) {
  RStarTree unsealed(7);
  unsealed.Insert(Rect(0.1, 0.1, 0.2, 0.2), 1);
  ParallelWindowQuery query(&unsealed, nullptr);
  WindowQueryConfig config;
  config.compute_answers = false;
  EXPECT_TRUE(query.Run(kWindow, config).status().IsFailedPrecondition());
  unsealed.Seal();
  EXPECT_TRUE(query.Run(kWindow, config).ok());
}

TEST_F(ParallelWindowQueryTest, SharedNothingAndHilbertPreserveResults) {
  const std::set<uint64_t> expected = ExpectedCandidates(kWindow);
  for (BufferType buffer : {BufferType::kGlobal, BufferType::kSharedNothing}) {
    for (PagePlacement placement :
         {PagePlacement::kModulo, PagePlacement::kHilbertStriping}) {
      WindowQueryConfig config;
      config.buffer_type = buffer;
      config.placement = placement;
      config.num_processors = 6;
      config.num_disks = 6;
      config.total_buffer_pages = 120;
      config.collect_ids = true;
      const WindowQueryResult result = MustRun(kWindow, config);
      const std::set<uint64_t> ids(result.candidate_ids.begin(),
                                   result.candidate_ids.end());
      EXPECT_EQ(ids, expected)
          << ToString(buffer) << "/" << ToString(placement);
    }
  }
}

TEST(WindowQueryRefinementTest, DistinguishesMbrFromGeometry) {
  // Hand-built store: a diagonal segment whose MBR overlaps the window
  // corner while the geometry stays outside (false hit), plus one segment
  // crossing the window (answer).
  ObjectStore store;
  store.Add(std::vector<Point>{{0.35, 0.47}, {0.43, 0.55}});  // False hit.
  store.Add(std::vector<Point>{{0.45, 0.45}, {0.48, 0.48}});  // Answer.
  const RStarTree tree = BuildTreeFromObjects(7, store.objects());
  const Rect window(0.4, 0.4, 0.5, 0.5);
  ASSERT_TRUE(store.Get(0).Mbr().Intersects(window));
  ASSERT_FALSE(store.Get(0).geometry.IntersectsRect(window));

  ParallelWindowQuery query(&tree, &store);
  WindowQueryConfig config;
  config.num_processors = 2;
  config.num_disks = 2;
  config.collect_ids = true;
  auto result = query.Run(window, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->candidate_ids.size(), 2u);
  ASSERT_EQ(result->answer_ids.size(), 1u);
  EXPECT_EQ(result->answer_ids[0], 1u);
}

TEST_F(ParallelWindowQueryTest, StatsConsistent) {
  WindowQueryConfig config;
  config.num_processors = 4;
  config.num_disks = 4;
  const auto stats = MustRun(kWindow, config).stats;
  int64_t candidates = 0;
  for (const auto& p : stats.per_processor) {
    candidates += p.candidates;
    EXPECT_LE(p.answers, p.candidates);
  }
  EXPECT_EQ(candidates, stats.total_candidates);
  EXPECT_GT(stats.num_tasks, 0);
  EXPECT_GT(stats.total_disk_accesses, 0);
}

}  // namespace
}  // namespace psj
