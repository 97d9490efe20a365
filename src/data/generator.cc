#include "data/generator.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "util/check.h"

namespace psj {

Geography Geography::Generate(uint64_t seed, int num_centers,
                              const Rect& world) {
  PSJ_CHECK_GT(num_centers, 0);
  PSJ_CHECK(world.IsValid());
  Geography geo;
  geo.world = world;
  Rng rng(seed);
  geo.centers.reserve(static_cast<size_t>(num_centers));
  geo.center_angles.reserve(static_cast<size_t>(num_centers));
  std::vector<double> weights(static_cast<size_t>(num_centers));
  double total = 0.0;
  for (int i = 0; i < num_centers; ++i) {
    geo.centers.push_back(Point{rng.NextDoubleInRange(world.xl, world.xu),
                                rng.NextDoubleInRange(world.yl, world.yu)});
    geo.center_angles.push_back(rng.NextDoubleInRange(0.0, M_PI / 2.0));
    // Zipf-like population weights: rank r gets 1/(r+1).
    weights[static_cast<size_t>(i)] = 1.0 / static_cast<double>(i + 1);
    total += weights[static_cast<size_t>(i)];
  }
  geo.center_weights.resize(weights.size());
  double cumulative = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i] / total;
    geo.center_weights[i] = cumulative;
  }
  geo.center_weights.back() = 1.0;
  return geo;
}

size_t Geography::SampleCenterIndex(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it =
      std::lower_bound(center_weights.begin(), center_weights.end(), u);
  return std::min<size_t>(
      static_cast<size_t>(it - center_weights.begin()),
      centers.size() - 1);
}

Point Geography::ClampToWorld(Point p) const {
  p.x = std::clamp(p.x, world.xl, world.xu);
  p.y = std::clamp(p.y, world.yl, world.yu);
  return p;
}

Point Geography::SamplePointNearCenter(Rng& rng, double sigma) const {
  const Point& c = centers[SampleCenterIndex(rng)];
  return ClampToWorld(Point{c.x + sigma * rng.NextGaussian(),
                            c.y + sigma * rng.NextGaussian()});
}

namespace {

// Walks `num_segments` steps from `start`, with per-step direction and
// length callbacks, clamped to the world; the path replaces `*path`'s
// points, so one scratch vector serves every walk of a map.
template <typename DirectionFn, typename LengthFn>
void Walk(const Geography& geo, Point start, int num_segments,
          DirectionFn&& direction, LengthFn&& length,
          std::vector<Point>* path) {
  path->clear();
  path->push_back(start);
  Point current = start;
  for (int s = 0; s < num_segments; ++s) {
    const double angle = direction(s);
    const double len = length(s);
    current = geo.ClampToWorld(Point{current.x + len * std::cos(angle),
                                     current.y + len * std::sin(angle)});
    path->push_back(current);
  }
}

}  // namespace

ObjectStore GenerateStreetsMap(const Geography& geography,
                               const StreetsSpec& spec) {
  PSJ_CHECK_GT(spec.num_objects, 0);
  PSJ_CHECK_GE(spec.min_segments, 1);
  PSJ_CHECK_GE(spec.max_segments, spec.min_segments);
  Rng rng(spec.seed);
  ObjectStore objects;
  objects.Reserve(static_cast<size_t>(spec.num_objects));
  std::vector<Point> line;
  for (int i = 0; i < spec.num_objects; ++i) {
    const size_t center = geography.SampleCenterIndex(rng);
    const Point& c = geography.centers[center];
    const Point start = geography.ClampToWorld(
        Point{c.x + spec.center_sigma * rng.NextGaussian(),
              c.y + spec.center_sigma * rng.NextGaussian()});
    const int segments = static_cast<int>(
        rng.NextInRange(spec.min_segments, spec.max_segments));
    // Streets follow the local grid: the city's base orientation plus a
    // multiple of 90 degrees, with small noise.
    const double base = geography.center_angles[center] +
                        static_cast<double>(rng.NextBelow(4)) * (M_PI / 2.0);
    Walk(
        geography, start, segments,
        [&](int) {
          return base + rng.NextDoubleInRange(-0.08, 0.08) +
                 (rng.NextBool(0.2) ? M_PI / 2.0 : 0.0);
        },
        [&](int) { return rng.NextExponential(spec.segment_length); },
        &line);
    objects.Add(line);
  }
  objects.ShrinkToFit();
  return objects;
}

ObjectStore GenerateMixedMap(const Geography& geography,
                             const MixedSpec& spec) {
  PSJ_CHECK_GT(spec.num_objects, 0);
  PSJ_CHECK_GE(spec.frac_boundaries, 0.0);
  PSJ_CHECK_GE(spec.frac_rivers, 0.0);
  PSJ_CHECK_LE(spec.frac_boundaries + spec.frac_rivers, 1.0);
  Rng rng(spec.seed);
  ObjectStore objects;
  objects.Reserve(static_cast<size_t>(spec.num_objects));
  std::vector<Point> path;

  const Rect& world = geography.world;

  // Emits consecutive fragments of a long feature path as separate map
  // objects, TIGER-chain style, until the path or the object budget runs
  // out.
  const auto emit_fragments = [&](std::span<const Point> pts) {
    size_t i = 0;
    while (i + 1 < pts.size() &&
           objects.size() < static_cast<size_t>(spec.num_objects)) {
      const size_t segs = static_cast<size_t>(
          rng.NextInRange(spec.min_segments, spec.max_segments));
      const size_t end = std::min(pts.size() - 1, i + segs);
      objects.Add(pts.subspan(i, end - i + 1));
      i = end;
    }
  };

  while (objects.size() < static_cast<size_t>(spec.num_objects)) {
    const double kind = rng.NextDouble();
    if (kind < spec.frac_boundaries) {
      // Administrative boundary: a rectangular-ish loop around an anchor,
      // walked with jitter.
      const Point anchor =
          rng.NextBool(spec.center_attraction)
              ? geography.SamplePointNearCenter(rng, 0.04)
              : Point{rng.NextDoubleInRange(world.xl, world.xu),
                      rng.NextDoubleInRange(world.yl, world.yu)};
      const int num_segments = static_cast<int>(rng.NextInRange(24, 60));
      const double side = static_cast<double>(num_segments) / 4.0;
      double heading = rng.NextDoubleInRange(0.0, 2.0 * M_PI);
      int step = 0;
      Walk(
          geography, anchor, num_segments,
          [&](int) {
            // Turn ~90 degrees every quarter of the loop.
            if (++step % std::max(1, static_cast<int>(side)) == 0) {
              heading += M_PI / 2.0;
            }
            return heading + rng.NextDoubleInRange(-0.25, 0.25);
          },
          [&](int) { return rng.NextExponential(spec.segment_length); },
          &path);
      emit_fragments(path);
    } else if (kind < spec.frac_boundaries + spec.frac_rivers) {
      // River: long meander starting at a world edge, heading inward.
      const int edge = static_cast<int>(rng.NextBelow(4));
      Point start;
      double heading;
      switch (edge) {
        case 0:
          start = Point{world.xl, rng.NextDoubleInRange(world.yl, world.yu)};
          heading = 0.0;
          break;
        case 1:
          start = Point{world.xu, rng.NextDoubleInRange(world.yl, world.yu)};
          heading = M_PI;
          break;
        case 2:
          start = Point{rng.NextDoubleInRange(world.xl, world.xu), world.yl};
          heading = M_PI / 2.0;
          break;
        default:
          start = Point{rng.NextDoubleInRange(world.xl, world.xu), world.yu};
          heading = -M_PI / 2.0;
          break;
      }
      const int num_segments = static_cast<int>(rng.NextInRange(80, 240));
      Walk(
          geography, start, num_segments,
          [&](int) {
            heading += 0.25 * rng.NextGaussian();
            return heading;
          },
          [&](int) { return rng.NextExponential(spec.segment_length * 1.4); },
          &path);
      emit_fragments(path);
    } else {
      // Railway: an almost straight line between two population centers.
      const Point from = geography.SamplePointNearCenter(rng, 0.01);
      const Point to = geography.SamplePointNearCenter(rng, 0.01);
      const double dx = to.x - from.x;
      const double dy = to.y - from.y;
      const double dist = std::hypot(dx, dy);
      if (dist < 0.02) {
        continue;  // Degenerate route; resample.
      }
      const double heading = std::atan2(dy, dx);
      const double seg = spec.segment_length * 1.2;
      const int num_segments =
          std::max(2, static_cast<int>(dist / seg));
      Walk(
          geography, from, num_segments,
          [&](int) { return heading + rng.NextDoubleInRange(-0.03, 0.03); },
          [&](int) { return seg; }, &path);
      emit_fragments(path);
    }
  }
  objects.ShrinkToFit();
  return objects;
}

ObjectStore GenerateUniformSegments(uint64_t seed, int num_objects,
                                    double segment_length, const Rect& world) {
  PSJ_CHECK_GE(num_objects, 0);
  Rng rng(seed);
  ObjectStore objects;
  objects.Reserve(static_cast<size_t>(num_objects));
  for (int i = 0; i < num_objects; ++i) {
    const Point start{rng.NextDoubleInRange(world.xl, world.xu),
                      rng.NextDoubleInRange(world.yl, world.yu)};
    const double angle = rng.NextDoubleInRange(0.0, 2.0 * M_PI);
    const double len = rng.NextExponential(segment_length);
    const Point segment[2] = {
        start,
        Point{std::clamp(start.x + len * std::cos(angle), world.xl, world.xu),
              std::clamp(start.y + len * std::sin(angle), world.yl, world.yu)}};
    objects.Add(segment);
  }
  objects.ShrinkToFit();
  return objects;
}

}  // namespace psj
