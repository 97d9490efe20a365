#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/join_plan.h"
#include "core/parallel_join.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace psj {
namespace {

using IdPair = std::pair<uint64_t, uint64_t>;

std::set<IdPair> AsSet(const std::vector<IdPair>& pairs) {
  return std::set<IdPair>(pairs.begin(), pairs.end());
}

/// Two object stores and their sealed trees; the self-join shape joins
/// tree_r with itself.
struct Inputs {
  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;
  bool self_join = false;

  ParallelSpatialJoin Join() const {
    return self_join
               ? ParallelSpatialJoin(&tree_r, &tree_r, &store_r, &store_r)
               : ParallelSpatialJoin(&tree_r, &tree_s, &store_r, &store_s);
  }
  const RStarTree& right_tree() const { return self_join ? tree_r : tree_s; }
  const ObjectStore& right_store() const {
    return self_join ? store_r : store_s;
  }
};

enum class Shape { kMaps, kUnequalHeights, kDisjoint, kSelfJoin };

std::string ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kMaps:
      return "Maps";
    case Shape::kUnequalHeights:
      return "UnequalHeights";
    case Shape::kDisjoint:
      return "Disjoint";
    case Shape::kSelfJoin:
      return "SelfJoin";
  }
  return "?";
}

/// Maps every point of `store` by (x, y) -> (offset + scale·x,
/// offset + scale·y), keeping the ids.
ObjectStore Squeeze(const ObjectStore& store, double offset, double scale) {
  ObjectStore squeezed;
  squeezed.Reserve(store.size());
  std::vector<Point> points;
  for (const MapObject& object : store.objects()) {
    points.clear();
    for (const Point& p : object.geometry.points()) {
      points.push_back(Point{offset + scale * p.x, offset + scale * p.y});
    }
    squeezed.Add(points);
  }
  return squeezed;
}

std::unique_ptr<Inputs> MakeInputs(Shape shape) {
  const Geography geo = Geography::Generate(100, 40);
  // Ten times the paper's segment lengths, so these small maps yield
  // about 600 candidates a join.
  StreetsSpec streets;
  streets.num_objects = 1'200;
  streets.segment_length = 0.003;
  MixedSpec mixed;
  mixed.num_objects = 1'000;
  mixed.segment_length = 0.0055;
  ObjectStore store_r(GenerateStreetsMap(geo, streets));
  ObjectStore store_s(GenerateMixedMap(geo, mixed));
  if (shape == Shape::kDisjoint) {
    store_r = Squeeze(store_r, 0.0, 0.4);
    store_s = Squeeze(store_s, 0.6, 0.4);
  }
  RTreeOptions options_r;
  if (shape == Shape::kUnequalHeights) {
    // A small fanout makes tree r several levels deeper than tree s.
    options_r.max_dir_entries = 6;
    options_r.max_data_entries = 6;
  }
  RStarTree tree_r = BuildTreeFromObjects(1, store_r.objects(),
                                          TreeBuildMethod::kInsertion,
                                          options_r);
  RStarTree tree_s = BuildTreeFromObjects(2, store_s.objects());
  return std::make_unique<Inputs>(Inputs{std::move(store_r),
                                         std::move(store_s), std::move(tree_r),
                                         std::move(tree_s),
                                         shape == Shape::kSelfJoin});
}

const Inputs& InputsFor(Shape shape) {
  // Built once per test binary; every test only reads them.
  static const auto* const all = [] {
    auto* inputs = new std::vector<std::unique_ptr<Inputs>>();
    for (const Shape s : {Shape::kMaps, Shape::kUnequalHeights,
                          Shape::kDisjoint, Shape::kSelfJoin}) {
      inputs->push_back(MakeInputs(s));
    }
    return inputs;
  }();
  return *(*all)[static_cast<size_t>(shape)];
}

/// Every plan key the simulator distinguishes, twice each: the second
/// config of a key differs in every setting the key leaves out.
std::vector<ParallelJoinConfig> MixedKeyGrid() {
  std::vector<ParallelJoinConfig> configs;
  for (const bool restriction : {true, false}) {
    for (const bool sweep : {true, false}) {
      for (const int sections : {0, 2, 4}) {
        for (const bool answers : {true, false}) {
          ParallelJoinConfig config = ParallelJoinConfig::Gd();
          config.num_processors = 4;
          config.num_disks = 4;
          config.total_buffer_pages = 200;
          config.use_search_space_restriction = restriction;
          config.use_plane_sweep = sweep;
          config.use_second_filter = sections > 0;
          config.second_filter_sections = sections > 0 ? sections : 4;
          config.compute_answers = answers;
          config.collect_pairs = true;
          configs.push_back(config);

          config.num_processors = 3;
          config.num_disks = 2;
          config.total_buffer_pages = 60;
          config.buffer_type = BufferType::kLocal;
          config.assignment = TaskAssignment::kStaticRange;
          config.reassignment = ReassignmentLevel::kRootLevel;
          config.victim_policy = VictimPolicy::kArbitrary;
          config.placement = PagePlacement::kHilbertStriping;
          config.costs.cpu_per_pair_tested = 3;
          config.costs.refine_max = 9 * sim::kMillisecond;
          config.task_creation_factor = 0.0;  // Tasks at the top level.
          config.seed = 11;
          configs.push_back(config);
        }
      }
    }
  }
  return configs;
}

/// The id pairs of the plan's candidates (all, or its answers only).
std::vector<IdPair> PlanPairs(const JoinPlan& plan, const RStarTree& tree_r,
                              const RStarTree& tree_s, bool answers_only) {
  std::vector<IdPair> pairs;
  for (size_t k = 0; k < plan.num_pairs(); ++k) {
    const JoinPlan::Pair& pair = plan.pair(k);
    if (pair.level != 0) {
      continue;
    }
    const NodeSoAView nr = tree_r.sealed().view(pair.page_r);
    const NodeSoAView ns = tree_s.sealed().view(pair.page_s);
    for (const JoinPlan::Candidate& c : plan.candidates(pair)) {
      if (!answers_only || c.is_answer) {
        pairs.emplace_back(nr.ids[c.entry_r], ns.ids[c.entry_s]);
      }
    }
  }
  return pairs;
}

/// 64-bit FNV-1a over every result's statistics (JoinStats::WriteJson) and
/// collected pairs, in input order.
uint64_t Fingerprint(const std::vector<StatusOr<JoinResult>>& results) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::string& text) {
    for (const char c : text) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  };
  for (const StatusOr<JoinResult>& result : results) {
    if (!result.ok()) {
      mix(result.status().ToString());
      continue;
    }
    JsonWriter out;
    result->stats.WriteJson(out);
    mix(out.str());
    for (const auto* pairs :
         {&result->candidate_pairs, &result->answer_pairs}) {
      for (const auto& [id_r, id_s] : *pairs) {
        mix(StringPrintf("%llu,%llu;", static_cast<unsigned long long>(id_r),
                         static_cast<unsigned long long>(id_s)));
      }
      mix("|");
    }
  }
  return hash;
}

// Reading the plan charges what matching, filtering and refining charged
// before the plan existed: the grid's results, every statistic and every
// collected pair, carry the fingerprint the simulator produced when each
// run matched nodes and tested polylines itself.
TEST(JoinPlanTest, EveryKeysVirtualTimeIsPinned) {
  const Inputs& inputs = InputsFor(Shape::kMaps);
  const auto results =
      ExperimentDriver(4).RunAll(inputs.Join(), MixedKeyGrid());
  int64_t candidates = 0;
  int64_t answers = 0;
  int64_t eliminated = 0;
  for (const StatusOr<JoinResult>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    candidates += result->stats.total_candidates;
    answers += result->stats.total_answers;
    eliminated += result->stats.total_second_filter_eliminated;
  }
  EXPECT_EQ(candidates, 30'048);
  EXPECT_EQ(answers, 5'088);
  EXPECT_EQ(eliminated, 5'376);
  EXPECT_EQ(Fingerprint(results), 0xe16944e16fb3109fULL);
}

class JoinPlanShapeTest : public ::testing::TestWithParam<Shape> {};

// One RunAll over a grid of mixed plan keys, on one and on four driver
// threads, equals running each config alone, which builds a plan of its
// own.
TEST_P(JoinPlanShapeTest, SharedPlansMatchRunsAlone) {
  const Inputs& inputs = InputsFor(GetParam());
  const ParallelSpatialJoin join = inputs.Join();
  const std::vector<ParallelJoinConfig> configs = MixedKeyGrid();
  std::vector<JoinResult> alone;
  for (const ParallelJoinConfig& config : configs) {
    StatusOr<JoinResult> result = join.Run(config);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    alone.push_back(std::move(result).value());
  }
  for (const int threads : {1, 4}) {
    const auto batch = ExperimentDriver(threads).RunAll(join, configs);
    ASSERT_EQ(batch.size(), configs.size());
    for (size_t i = 0; i < configs.size(); ++i) {
      SCOPED_TRACE(testing::Message() << threads << " threads, "
                                      << configs[i].Describe());
      ASSERT_TRUE(batch[i].ok()) << batch[i].status().ToString();
      EXPECT_TRUE(*batch[i] == alone[i]);
    }
  }
}

// Each plan's node pairs and candidates are the sequential join's; its
// answers are the brute-force join's, and the second filter drops none.
TEST_P(JoinPlanShapeTest, PlanIsTheSequentialJoinsOracle) {
  const Shape shape = GetParam();
  const Inputs& inputs = InputsFor(shape);
  const RStarTree& tree_s = inputs.right_tree();
  const BruteForceJoinResult brute =
      BruteForceObjectJoin(inputs.store_r, inputs.right_store());
  for (const bool restriction : {true, false}) {
    for (const bool sweep : {true, false}) {
      for (const int sections : {0, 2}) {
        SCOPED_TRACE(testing::Message() << "restriction=" << restriction
                                        << " sweep=" << sweep
                                        << " sections=" << sections);
        JoinPlanKey key;
        key.use_search_space_restriction = restriction;
        key.use_plane_sweep = sweep;
        key.use_second_filter = sections > 0;
        key.second_filter_sections = sections;
        const JoinPlan plan =
            JoinPlan::Build(inputs.tree_r, tree_s, &inputs.store_r,
                            &inputs.right_store(), key);
        SequentialJoinOptions options;
        options.match = NodeMatchOptions{restriction, sweep};
        const SequentialJoinResult sequential =
            SequentialRTreeJoin(inputs.tree_r, tree_s, options);
        EXPECT_EQ(static_cast<int64_t>(plan.num_pairs()),
                  sequential.node_pairs_processed);
        const std::vector<IdPair> candidates =
            PlanPairs(plan, inputs.tree_r, tree_s, false);
        EXPECT_EQ(candidates.size(), plan.num_candidates());
        EXPECT_EQ(AsSet(candidates), AsSet(sequential.candidates));
        EXPECT_EQ(AsSet(candidates), AsSet(brute.candidates));
        EXPECT_EQ(AsSet(PlanPairs(plan, inputs.tree_r, tree_s, true)),
                  AsSet(brute.answers));
        for (size_t k = 1; k < plan.num_pairs(); ++k) {
          ASSERT_LE(plan.pair(k).level, plan.pair(k - 1).level)
              << "levels must come breadth first, from the top down";
        }
      }
    }
  }
  if (shape == Shape::kDisjoint) {
    EXPECT_TRUE(brute.candidates.empty());
  } else {
    EXPECT_FALSE(brute.answers.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, JoinPlanShapeTest,
                         ::testing::Values(Shape::kMaps,
                                           Shape::kUnequalHeights,
                                           Shape::kDisjoint,
                                           Shape::kSelfJoin),
                         [](const auto& info) {
                           return ShapeName(info.param);
                         });

TEST(JoinPlanTest, ShapesAreWhatTheirNamesSay) {
  const Inputs& unequal = InputsFor(Shape::kUnequalHeights);
  EXPECT_GT(unequal.tree_r.height(), unequal.tree_s.height() + 1);
  const Inputs& disjoint = InputsFor(Shape::kDisjoint);
  EXPECT_FALSE(disjoint.tree_r.root_mbr().Intersects(
      disjoint.tree_s.root_mbr()));
  const JoinPlan plan = JoinPlan::Build(disjoint.tree_r, disjoint.tree_s,
                                        nullptr, nullptr, JoinPlanKey{
                                            .compute_answers = false});
  EXPECT_EQ(plan.num_candidates(), 0u);
}

TEST(JoinPlanTest, KeyIgnoresCostsAndSchedules) {
  ParallelJoinConfig a = ParallelJoinConfig::Gd();
  ParallelJoinConfig b = ParallelJoinConfig::Lsr();
  b.num_processors = 24;
  b.num_disks = 1;
  b.costs.refine_max = 4 * sim::kMillisecond;
  b.placement = PagePlacement::kHilbertStriping;
  EXPECT_TRUE(JoinPlanKey::Of(a) == JoinPlanKey::Of(b));
  // The section count only matters with the filter on.
  b.second_filter_sections = 2;
  EXPECT_TRUE(JoinPlanKey::Of(a) == JoinPlanKey::Of(b));
  b.use_second_filter = true;
  EXPECT_FALSE(JoinPlanKey::Of(a) == JoinPlanKey::Of(b));
  a.use_second_filter = true;
  EXPECT_FALSE(JoinPlanKey::Of(a) == JoinPlanKey::Of(b));
  a.second_filter_sections = 2;
  EXPECT_TRUE(JoinPlanKey::Of(a) == JoinPlanKey::Of(b));
}

TEST(JoinPlanTest, MismatchedPlansAreRejected) {
  const Inputs& inputs = InputsFor(Shape::kMaps);
  const ParallelSpatialJoin join(&inputs.tree_r, &inputs.tree_s,
                                 &inputs.store_r, &inputs.store_s);
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 4;
  config.use_second_filter = true;
  const StatusOr<JoinPlan> plan = join.BuildPlan(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // Another schedule of the same key runs on the plan, as it would alone.
  ParallelJoinConfig same_key = config;
  same_key.num_processors = 7;
  same_key.reassignment = ReassignmentLevel::kNone;
  const StatusOr<JoinResult> shared = join.Run(same_key, *plan);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_TRUE(*shared == *join.Run(same_key));

  // Every key field is checked.
  std::vector<ParallelJoinConfig> other_keys(5, config);
  other_keys[0].use_search_space_restriction = false;
  other_keys[1].use_plane_sweep = false;
  other_keys[2].compute_answers = false;
  other_keys[3].use_second_filter = false;
  other_keys[4].second_filter_sections = 2;
  for (const ParallelJoinConfig& other : other_keys) {
    EXPECT_TRUE(join.Run(other, *plan).status().IsInvalidArgument());
  }

  // So are the inputs: swapped trees, a self join, other stores.
  const ParallelSpatialJoin swapped(&inputs.tree_s, &inputs.tree_r,
                                    &inputs.store_s, &inputs.store_r);
  EXPECT_TRUE(swapped.Run(config, *plan).status().IsInvalidArgument());
  const ParallelSpatialJoin self(&inputs.tree_r, &inputs.tree_r,
                                 &inputs.store_r, &inputs.store_r);
  EXPECT_TRUE(self.Run(config, *plan).status().IsInvalidArgument());
  const Inputs& others = InputsFor(Shape::kDisjoint);
  const ParallelSpatialJoin other_stores(&inputs.tree_r, &inputs.tree_s,
                                         &others.store_r, &others.store_s);
  EXPECT_TRUE(other_stores.Run(config, *plan).status().IsInvalidArgument());

  // A config that fails its own checks fails before the plan is read.
  ParallelJoinConfig invalid = config;
  invalid.num_processors = 0;
  EXPECT_TRUE(join.Run(invalid, *plan).status().IsInvalidArgument());
  EXPECT_TRUE(join.BuildPlan(invalid).status().IsInvalidArgument());
}

TEST(JoinPlanTest, RunAllIsolatesConfigsThatFailTheirChecks) {
  const Inputs& inputs = InputsFor(Shape::kMaps);
  // Without object stores only answer-free, filter-free configs can run.
  const ParallelSpatialJoin join(&inputs.tree_r, &inputs.tree_s, nullptr,
                                 nullptr);
  std::vector<ParallelJoinConfig> configs;
  for (const int n : {1, 2, 4, 8}) {
    ParallelJoinConfig config = ParallelJoinConfig::Gd();
    config.num_processors = n;
    config.num_disks = n;
    config.compute_answers = false;
    config.collect_pairs = true;
    configs.push_back(config);
  }
  configs[1].use_second_filter = true;  // Needs the object stores.
  configs[2].num_disks = 0;             // Invalid, with a valid config's key.
  for (const int threads : {1, 4}) {
    const auto results = ExperimentDriver(threads).RunAll(join, configs);
    ASSERT_EQ(results.size(), configs.size());
    EXPECT_TRUE(results[1].status().IsInvalidArgument());
    EXPECT_TRUE(results[2].status().IsInvalidArgument());
    for (const size_t i : {size_t{0}, size_t{3}}) {
      ASSERT_TRUE(results[i].ok()) << results[i].status().ToString();
      EXPECT_TRUE(*results[i] == *join.Run(configs[i]));
      EXPECT_GT(results[i]->stats.total_candidates, 0);
    }
  }
}

}  // namespace
}  // namespace psj
