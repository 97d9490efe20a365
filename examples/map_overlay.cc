// Map overlay: the introduction's motivating query — "find all forests
// which are in a city" — as a filter-and-refinement spatial join.
//
// Two polygonal relations are generated (city boundaries and forest
// boundaries, as closed polyline rings), indexed with R*-trees, joined in
// parallel, and the answers are verified against a brute-force join.
//
//   ./build/examples/map_overlay
#include <cmath>
#include <cstdio>
#include <set>
#include <vector>

#include "core/parallel_join.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {

using psj::ObjectStore;
using psj::Point;

// A closed, slightly irregular ring around (cx, cy) — the boundary of a
// city or forest polygon. For boundary-intersection joins, polygon overlap
// that is not full containment shows up as ring intersection. The ring's
// points replace `*ring`'s.
void MakeRing(psj::Rng& rng, double cx, double cy, double radius,
              int vertices, std::vector<Point>* ring) {
  ring->clear();
  for (int v = 0; v <= vertices; ++v) {
    const double angle = 2.0 * M_PI * v / vertices;
    const double r = radius * (0.8 + 0.4 * rng.NextDouble());
    ring->push_back(Point{cx + r * std::cos(angle), cy + r * std::sin(angle)});
  }
  // Close the ring exactly.
  ring->push_back(ring->front());
}

ObjectStore MakeRings(uint64_t seed, int count, double radius) {
  psj::Rng rng(seed);
  ObjectStore objects;
  objects.Reserve(static_cast<size_t>(count));
  std::vector<Point> ring;
  for (int i = 0; i < count; ++i) {
    const double cx = rng.NextDoubleInRange(0.05, 0.95);
    const double cy = rng.NextDoubleInRange(0.05, 0.95);
    const int vertices = static_cast<int>(rng.NextInRange(8, 16));
    const double r = radius * (0.5 + rng.NextDouble());
    MakeRing(rng, cx, cy, r, vertices, &ring);
    objects.Add(ring);
  }
  return objects;
}

}  // namespace

int main() {
  using namespace psj;

  const ObjectStore cities(MakeRings(/*seed=*/11, /*count=*/900,
                                     /*radius=*/0.03));
  const ObjectStore forests(MakeRings(/*seed=*/12, /*count=*/1'400,
                                      /*radius=*/0.02));
  std::printf("joining %zu city boundaries with %zu forest boundaries\n",
              cities.size(), forests.size());

  const RStarTree city_tree = BuildTreeFromObjects(1, cities.objects());
  const RStarTree forest_tree = BuildTreeFromObjects(2, forests.objects());

  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 8;
  config.num_disks = 8;
  config.total_buffer_pages = 400;
  config.collect_pairs = true;

  ParallelSpatialJoin join(&city_tree, &forest_tree, &cities, &forests);
  auto result = join.Run(config);
  if (!result.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("filter step:     %s candidate pairs (MBRs intersect)\n",
              FormatWithCommas(result->stats.total_candidates).c_str());
  std::printf("refinement step: %s overlapping city/forest pairs\n",
              FormatWithCommas(result->stats.total_answers).c_str());
  std::printf("simulated response time on 8 CPUs / 8 disks: %s s\n",
              FormatMicrosAsSeconds(result->stats.response_time).c_str());

  // Cross-check against the brute-force object join.
  const auto brute = BruteForceObjectJoin(cities, forests);
  const std::set<std::pair<uint64_t, uint64_t>> expected(
      brute.answers.begin(), brute.answers.end());
  const std::set<std::pair<uint64_t, uint64_t>> actual(
      result->answer_pairs.begin(), result->answer_pairs.end());
  if (expected != actual) {
    std::fprintf(stderr, "VERIFICATION FAILED: answer sets differ\n");
    return 1;
  }
  std::printf("verified: parallel answers equal the brute-force join "
              "(%zu pairs)\n",
              expected.size());

  // A few concrete answers.
  std::printf("sample answers (city id, forest id):");
  int shown = 0;
  for (const auto& pair : expected) {
    if (++shown > 5) break;
    std::printf(" (%llu,%llu)", static_cast<unsigned long long>(pair.first),
                static_cast<unsigned long long>(pair.second));
  }
  std::printf("\n");
  return 0;
}
