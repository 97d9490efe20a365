#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/parallel_join.h"
#include "data/generator.h"
#include "util/rng.h"
#include "data/map_builder.h"
#include "join/second_filter.h"

namespace psj {
namespace {

TEST(SectionMbrsTest, CoverTheWholePolyline) {
  const Polyline line({{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}});
  for (int sections : {1, 2, 3, 4, 10}) {
    const auto mbrs = ComputeSectionMbrs(line, sections);
    ASSERT_FALSE(mbrs.empty());
    EXPECT_LE(mbrs.size(), static_cast<size_t>(sections));
    Rect covered = Rect::Empty();
    for (const Rect& mbr : mbrs) {
      covered.ExpandToInclude(mbr);
    }
    EXPECT_EQ(covered, line.Mbr()) << "sections=" << sections;
    // Every vertex lies in some section MBR.
    for (const Point& vertex : line.points()) {
      bool inside = false;
      for (const Rect& mbr : mbrs) {
        inside = inside || mbr.ContainsPoint(vertex);
      }
      EXPECT_TRUE(inside);
    }
  }
}

TEST(SectionMbrsTest, TighterThanSingleMbr) {
  // A long diagonal: 4 sections cover a quarter of the single MBR's area.
  Polyline line;
  for (int i = 0; i <= 16; ++i) {
    line.AddPoint({static_cast<double>(i), static_cast<double>(i)});
  }
  const auto one = ComputeSectionMbrs(line, 1);
  const auto four = ComputeSectionMbrs(line, 4);
  double area_four = 0.0;
  for (const Rect& r : four) area_four += r.Area();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_LT(area_four, one[0].Area() / 2.0);
}

TEST(SectionMbrsTest, DegenerateInputs) {
  EXPECT_TRUE(ComputeSectionMbrs(Polyline(), 4).empty());
  const auto point = ComputeSectionMbrs(Polyline({{1, 2}}), 4);
  ASSERT_EQ(point.size(), 1u);
  EXPECT_EQ(point[0], Rect(1, 2, 1, 2));
  const auto segment = ComputeSectionMbrs(Polyline({{0, 0}, {1, 1}}), 4);
  EXPECT_EQ(segment.size(), 1u);
}

// Random multi-segment zigzag polylines, whose section MBRs are genuinely
// tighter than the single MBR.
ObjectStore MakeZigzagStore(uint64_t seed, int count) {
  Rng rng(seed);
  ObjectStore objects;
  std::vector<Point> line;
  for (int i = 0; i < count; ++i) {
    line.clear();
    double x = rng.NextDoubleInRange(0.0, 1.0);
    double y = rng.NextDoubleInRange(0.0, 1.0);
    line.push_back({x, y});
    double heading = rng.NextDoubleInRange(0.0, 2.0 * M_PI);
    for (int s = 0; s < 8; ++s) {
      heading += rng.NextDoubleInRange(-1.0, 1.0);
      x += 0.02 * std::cos(heading);
      y += 0.02 * std::sin(heading);
      line.push_back({x, y});
    }
    objects.Add(line);
  }
  return objects;
}

TEST(SecondFilterTest, NeverEliminatesARealIntersection) {
  // Conservativeness property over random object pairs.
  const ObjectStore store_a = MakeZigzagStore(50, 300);
  const ObjectStore store_b = MakeZigzagStore(51, 300);
  const SecondFilter filter_a(store_a, 4);
  const SecondFilter filter_b(store_b, 4);
  int eliminated = 0;
  for (const MapObject& a : store_a.objects()) {
    for (const MapObject& b : store_b.objects()) {
      if (!a.Mbr().Intersects(b.Mbr())) continue;
      const bool possible = SecondFilter::CanIntersect(
          filter_a.sections(a.id), filter_b.sections(b.id));
      if (!possible) {
        ++eliminated;
        EXPECT_FALSE(a.geometry.Intersects(b.geometry))
            << "second filter eliminated a true answer: " << a.id << ","
            << b.id;
      }
    }
  }
  // The filter must actually eliminate something on this workload.
  EXPECT_GT(eliminated, 0);
}

TEST(SecondFilterTest, CountsTests) {
  const std::vector<Rect> a = {Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)};
  const std::vector<Rect> b = {Rect(10, 10, 11, 11), Rect(0.5, 0.5, 2, 2)};
  size_t tests = 0;
  EXPECT_TRUE(SecondFilter::CanIntersect(a, b, &tests));
  EXPECT_EQ(tests, 2u);  // Stops at the first hit.
  const std::vector<Rect> miss_then_hit = {a[1], a[0]};
  EXPECT_TRUE(SecondFilter::CanIntersect(miss_then_hit, b, &tests));
  EXPECT_EQ(tests, 4u);  // A full row of |b| per miss, then hit + 1.
  const std::vector<Rect> c = {Rect(20, 20, 21, 21)};
  EXPECT_FALSE(SecondFilter::CanIntersect(a, c, &tests));
  EXPECT_EQ(tests, 2u);  // Exhaustive when disjoint.
}

TEST(SecondFilterJoinTest, AnswersUnchangedAndWorkSaved) {
  // Zigzag objects: the section approximation has real bite here.
  const ObjectStore store_r = MakeZigzagStore(60, 1'500);
  const ObjectStore store_s = MakeZigzagStore(61, 1'500);
  const RStarTree tree_r = BuildTreeFromObjects(1, store_r.objects());
  const RStarTree tree_s = BuildTreeFromObjects(2, store_s.objects());
  ParallelSpatialJoin join(&tree_r, &tree_s, &store_r, &store_s);

  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 4;
  config.second_filter_sections = 8;
  config.collect_pairs = true;
  auto without = join.Run(config);
  ASSERT_TRUE(without.ok());

  config.use_second_filter = true;
  auto with = join.Run(config);
  ASSERT_TRUE(with.ok());

  // Identical candidates and answers.
  const std::set<std::pair<uint64_t, uint64_t>> candidates_a(
      without->candidate_pairs.begin(), without->candidate_pairs.end());
  const std::set<std::pair<uint64_t, uint64_t>> candidates_b(
      with->candidate_pairs.begin(), with->candidate_pairs.end());
  EXPECT_EQ(candidates_a, candidates_b);
  const std::set<std::pair<uint64_t, uint64_t>> answers_a(
      without->answer_pairs.begin(), without->answer_pairs.end());
  const std::set<std::pair<uint64_t, uint64_t>> answers_b(
      with->answer_pairs.begin(), with->answer_pairs.end());
  EXPECT_EQ(answers_a, answers_b);

  // The filter eliminated false hits and saved response time.
  EXPECT_GT(with->stats.total_second_filter_eliminated, 0);
  EXPECT_LT(with->stats.response_time, without->stats.response_time);
}

TEST(SecondFilterJoinTest, RequiresObjectStores) {
  const ObjectStore store(GenerateUniformSegments(52, 100, 0.01));
  const RStarTree tree_a = BuildTreeFromObjects(1, store.objects());
  const RStarTree tree_b = BuildTreeFromObjects(2, store.objects());
  ParallelSpatialJoin join(&tree_a, &tree_b, nullptr, nullptr);
  ParallelJoinConfig config;
  config.compute_answers = false;
  config.use_second_filter = true;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
  config.second_filter_sections = 0;
  EXPECT_TRUE(join.Run(config).status().IsInvalidArgument());
}

}  // namespace
}  // namespace psj
