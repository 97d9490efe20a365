#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "geo/polyline.h"
#include "geo/rect.h"
#include "util/rng.h"

namespace psj {
namespace {

TEST(RectTest, BasicProperties) {
  const Rect r(1.0, 2.0, 4.0, 6.0);
  EXPECT_TRUE(r.IsValid());
  EXPECT_DOUBLE_EQ(r.Width(), 3.0);
  EXPECT_DOUBLE_EQ(r.Height(), 4.0);
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 7.0);
  EXPECT_EQ(r.Center().x, 2.5);
  EXPECT_EQ(r.Center().y, 4.0);
}

TEST(RectTest, DegenerateRectsAreValid) {
  EXPECT_TRUE(Rect(1, 1, 1, 1).IsValid());   // Point.
  EXPECT_TRUE(Rect(1, 1, 5, 1).IsValid());   // Horizontal segment.
  EXPECT_FALSE(Rect(2, 1, 1, 1).IsValid());  // Inverted.
}

TEST(RectTest, IntersectsIsClosedOnBoundaries) {
  const Rect a(0, 0, 1, 1);
  EXPECT_TRUE(a.Intersects(Rect(1, 1, 2, 2)));  // Shared corner.
  EXPECT_TRUE(a.Intersects(Rect(1, 0, 2, 1)));  // Shared edge.
  EXPECT_FALSE(a.Intersects(Rect(1.0001, 0, 2, 1)));
  EXPECT_TRUE(a.Intersects(a));
}

TEST(RectTest, ContainsIncludesBoundary) {
  const Rect a(0, 0, 10, 10);
  EXPECT_TRUE(a.Contains(Rect(0, 0, 10, 10)));
  EXPECT_TRUE(a.Contains(Rect(2, 2, 3, 3)));
  EXPECT_FALSE(a.Contains(Rect(2, 2, 11, 3)));
  EXPECT_TRUE(a.ContainsPoint(Point{0, 10}));
  EXPECT_FALSE(a.ContainsPoint(Point{-0.1, 5}));
}

TEST(RectTest, IntersectionAndUnion) {
  const Rect a(0, 0, 4, 4);
  const Rect b(2, 1, 6, 3);
  const Rect i = a.Intersection(b);
  EXPECT_EQ(i, Rect(2, 1, 4, 3));
  EXPECT_DOUBLE_EQ(a.IntersectionArea(b), 4.0);
  EXPECT_EQ(a.UnionWith(b), Rect(0, 0, 6, 4));

  const Rect c(5, 5, 6, 6);
  EXPECT_FALSE(a.Intersection(c).IsValid());
  EXPECT_DOUBLE_EQ(a.IntersectionArea(c), 0.0);
}

TEST(RectTest, EnlargementIsUnionMinusArea) {
  const Rect a(0, 0, 2, 2);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect(1, 1, 3, 3)), 9.0 - 4.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect(0.5, 0.5, 1, 1)), 0.0);
}

TEST(RectTest, EmptyActsAsIdentityForExpand) {
  Rect e = Rect::Empty();
  EXPECT_FALSE(e.IsValid());
  e.ExpandToInclude(Rect(1, 2, 3, 4));
  EXPECT_EQ(e, Rect(1, 2, 3, 4));
}

TEST(OverlapDegreeTest, DisjointIsZero) {
  EXPECT_DOUBLE_EQ(OverlapDegree(Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)), 0.0);
}

TEST(OverlapDegreeTest, ContainmentIsOne) {
  EXPECT_DOUBLE_EQ(OverlapDegree(Rect(0, 0, 10, 10), Rect(1, 1, 2, 2)), 1.0);
}

TEST(OverlapDegreeTest, PartialOverlapIsProportional) {
  // Overlap area 1, smaller rect area 4 -> 0.25.
  EXPECT_DOUBLE_EQ(OverlapDegree(Rect(0, 0, 2, 2), Rect(1, 1, 4, 4)), 0.25);
}

TEST(OverlapDegreeTest, DegenerateRectsUseExtents) {
  // A vertical segment crossing the middle of a box: x-extent of the
  // segment is a point inside the box (degree 1), y overlap is half of the
  // shorter y-extent.
  const Rect segment(1, 0, 1, 2);
  const Rect box(0, 1, 2, 3);
  EXPECT_GT(OverlapDegree(segment, box), 0.0);
  EXPECT_LE(OverlapDegree(segment, box), 1.0);
  // Two identical points that touch.
  EXPECT_DOUBLE_EQ(OverlapDegree(Rect(1, 1, 1, 1), Rect(1, 1, 1, 1)), 1.0);
}

TEST(OverlapDegreeTest, SymmetricAndBounded) {
  const Rect a(0, 0, 3, 2);
  const Rect b(1, 1, 5, 4);
  EXPECT_DOUBLE_EQ(OverlapDegree(a, b), OverlapDegree(b, a));
  EXPECT_GE(OverlapDegree(a, b), 0.0);
  EXPECT_LE(OverlapDegree(a, b), 1.0);
}

TEST(SegmentsIntersectTest, ProperCrossing) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 2}, {0, 2}, {2, 0}));
}

TEST(SegmentsIntersectTest, DisjointSegments) {
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {0, 1}, {1, 1}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 1}, {2, 2.0001}, {3, 3}));
}

TEST(SegmentsIntersectTest, TouchingEndpoint) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {1, 1}, {1, 1}, {2, 0}));
}

TEST(SegmentsIntersectTest, CollinearOverlap) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, 0}, {3, 0}));
  EXPECT_FALSE(SegmentsIntersect({0, 0}, {1, 0}, {2, 0}, {3, 0}));
}

TEST(SegmentsIntersectTest, TJunction) {
  EXPECT_TRUE(SegmentsIntersect({0, 0}, {2, 0}, {1, -1}, {1, 0}));
}

TEST(PolylineTest, MbrTracksPoints) {
  Polyline line;
  EXPECT_TRUE(line.empty());
  line.AddPoint({1, 5});
  line.AddPoint({3, 2});
  EXPECT_EQ(line.Mbr(), Rect(1, 2, 3, 5));
}

TEST(PolylineTest, LengthSumsSegments) {
  Polyline line({{0, 0}, {3, 0}, {3, 4}});
  EXPECT_DOUBLE_EQ(line.Length(), 7.0);
}

TEST(PolylineTest, IntersectsCrossingChains) {
  Polyline a({{0, 0}, {2, 2}});
  Polyline b({{0, 2}, {2, 0}});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
}

TEST(PolylineTest, DisjointChains) {
  Polyline a({{0, 0}, {1, 0}});
  Polyline b({{0, 1}, {1, 1}});
  EXPECT_FALSE(a.Intersects(b));
}

TEST(PolylineTest, MbrOverlapButNoIntersection) {
  // L-shaped chains whose MBRs overlap but segments never touch.
  Polyline a({{0, 0}, {0, 3}, {3, 3}});
  Polyline b({{1, 1}, {2, 1}, {2, 2}});
  EXPECT_FALSE(a.Intersects(b));
}

TEST(PolylineTest, SinglePointOnSegment) {
  Polyline point({{1, 1}});
  Polyline segment({{0, 0}, {2, 2}});
  EXPECT_TRUE(point.Intersects(segment));
  EXPECT_TRUE(segment.Intersects(point));
  Polyline off({{5, 5}});
  EXPECT_FALSE(off.Intersects(segment));
}

TEST(SegmentIntersectsRectTest, EndpointInside) {
  EXPECT_TRUE(SegmentIntersectsRect({1, 1}, {5, 5}, Rect(0, 0, 2, 2)));
}

TEST(SegmentIntersectsRectTest, CrossesThrough) {
  // Both endpoints outside, segment passes through the box.
  EXPECT_TRUE(SegmentIntersectsRect({-1, 1}, {3, 1}, Rect(0, 0, 2, 2)));
  // Diagonal pass through a corner region.
  EXPECT_TRUE(SegmentIntersectsRect({-1, 1}, {1, 3}, Rect(0, 0, 2, 2)));
}

TEST(SegmentIntersectsRectTest, MissesBox) {
  EXPECT_FALSE(SegmentIntersectsRect({-1, 3}, {3, 7}, Rect(0, 0, 2, 2)));
  EXPECT_FALSE(SegmentIntersectsRect({5, 5}, {6, 6}, Rect(0, 0, 2, 2)));
}

TEST(SegmentIntersectsRectTest, TouchesEdge) {
  EXPECT_TRUE(SegmentIntersectsRect({-1, 2}, {3, 2}, Rect(0, 0, 2, 2)));
  EXPECT_TRUE(SegmentIntersectsRect({2, -1}, {2, 3}, Rect(0, 0, 2, 2)));
}

TEST(PolylineIntersectsRectTest, MbrOverlapButGeometryOutside) {
  // L-shaped chain whose MBR contains the box but whose segments miss it.
  Polyline line({{0, 0}, {0, 10}, {10, 10}});
  EXPECT_FALSE(line.IntersectsRect(Rect(4, 4, 6, 6)));
  EXPECT_TRUE(line.IntersectsRect(Rect(-1, 3, 1, 5)));
}

TEST(PolylineIntersectsRectTest, FullyInside) {
  Polyline line({{1, 1}, {1.5, 1.5}});
  EXPECT_TRUE(line.IntersectsRect(Rect(0, 0, 2, 2)));
}

TEST(PolylineIntersectsRectTest, SinglePoint) {
  EXPECT_TRUE(Polyline({{1, 1}}).IntersectsRect(Rect(0, 0, 2, 2)));
  EXPECT_FALSE(Polyline({{5, 5}}).IntersectsRect(Rect(0, 0, 2, 2)));
  EXPECT_FALSE(Polyline().IntersectsRect(Rect(0, 0, 2, 2)));
}

TEST(PolylineTest, EmptyNeverIntersects) {
  Polyline empty;
  Polyline segment({{0, 0}, {1, 1}});
  EXPECT_FALSE(empty.Intersects(segment));
  EXPECT_FALSE(segment.Intersects(empty));
  EXPECT_FALSE(empty.Intersects(empty));
}

// ---- PolylineView against the owner and the definitions --------------------

// The definitions the predicates implement, without their MBR pruning.
Rect ReferenceMbr(std::span<const Point> points) {
  Rect mbr = Rect::Empty();
  for (const Point& p : points) {
    mbr.ExpandToIncludePoint(p);
  }
  return mbr;
}

double ReferenceLength(std::span<const Point> points) {
  double total = 0.0;
  for (size_t i = 1; i < points.size(); ++i) {
    total += std::hypot(points[i].x - points[i - 1].x,
                        points[i].y - points[i - 1].y);
  }
  return total;
}

// A single point is the zero-length segment from itself to itself.
std::vector<std::pair<Point, Point>> SegmentsOf(std::span<const Point> points) {
  std::vector<std::pair<Point, Point>> segments;
  if (points.size() == 1) {
    segments.emplace_back(points[0], points[0]);
  }
  for (size_t i = 1; i < points.size(); ++i) {
    segments.emplace_back(points[i - 1], points[i]);
  }
  return segments;
}

bool ReferenceIntersects(std::span<const Point> a, std::span<const Point> b) {
  for (const auto& [a0, a1] : SegmentsOf(a)) {
    for (const auto& [b0, b1] : SegmentsOf(b)) {
      if (SegmentsIntersect(a0, a1, b0, b1)) return true;
    }
  }
  return false;
}

bool ReferenceIntersectsRect(std::span<const Point> points, const Rect& rect) {
  if (points.size() == 1) return rect.ContainsPoint(points[0]);
  for (const auto& [p0, p1] : SegmentsOf(points)) {
    if (SegmentIntersectsRect(p0, p1, rect)) return true;
  }
  return false;
}

bool SameBits(const Rect& a, const Rect& b) {
  return std::memcmp(&a, &b, sizeof(Rect)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Coordinates from a small exact grid, with both zeros, so the fuzz hits
// shared endpoints, collinear overlaps, touching corners and -0.0 folds.
double GridCoordinate(Rng& rng) {
  static constexpr double kGrid[] = {-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 2.0};
  return kGrid[rng.NextBelow(std::size(kGrid))];
}

TEST(PolylineViewTest, ViewsInAFlatArrayMatchTheOwnerBitForBit) {
  Rng rng(2026);
  int intersecting = 0;
  int touching_rects = 0;
  for (int trial = 0; trial < 4'000; ++trial) {
    // Two polylines of 1-6 points, laid out in one array between points
    // that belong to neither, as an object store lays out its objects.
    std::vector<Point> flat;
    size_t begin[2];
    size_t count[2];
    for (int k = 0; k < 2; ++k) {
      flat.push_back(Point{100.0 + trial, -100.0});  // A neighbour.
      begin[k] = flat.size();
      count[k] = 1 + rng.NextBelow(6);
      for (size_t i = 0; i < count[k]; ++i) {
        // Repeat the previous point now and then (zero-length segments).
        if (i > 0 && rng.NextBool(0.15)) {
          flat.push_back(flat.back());
        } else {
          flat.push_back(Point{GridCoordinate(rng), GridCoordinate(rng)});
        }
      }
    }
    flat.push_back(Point{-100.0, 100.0 + trial});
    const std::span<const Point> all(flat);
    const std::span<const Point> a = all.subspan(begin[0], count[0]);
    const std::span<const Point> b = all.subspan(begin[1], count[1]);
    const PolylineView view_a(a);
    const PolylineView view_b(b);
    const Polyline owner_a(std::vector<Point>(a.begin(), a.end()));
    const Polyline owner_b(std::vector<Point>(b.begin(), b.end()));
    double corner[4];  // Drawn in order: call arguments are unsequenced.
    for (double& c : corner) {
      c = GridCoordinate(rng);
    }
    const Rect window(std::min(corner[0], corner[1]),
                      std::min(corner[2], corner[3]),
                      std::max(corner[0], corner[1]),
                      std::max(corner[2], corner[3]));

    ASSERT_TRUE(SameBits(view_a.Mbr(), owner_a.Mbr())) << trial;
    ASSERT_TRUE(SameBits(view_a.Mbr(), ReferenceMbr(a))) << trial;
    ASSERT_TRUE(SameBits(view_b.Mbr(), owner_b.Mbr())) << trial;
    ASSERT_TRUE(SameBits(view_a.Length(), owner_a.Length())) << trial;
    ASSERT_TRUE(SameBits(view_a.Length(), ReferenceLength(a))) << trial;
    const bool hit = ReferenceIntersects(a, b);
    ASSERT_EQ(view_a.Intersects(view_b), hit) << trial;
    ASSERT_EQ(view_b.Intersects(view_a), hit) << trial;
    ASSERT_EQ(owner_a.Intersects(owner_b), hit) << trial;
    const bool inside = ReferenceIntersectsRect(a, window);
    ASSERT_EQ(view_a.IntersectsRect(window), inside) << trial;
    ASSERT_EQ(owner_a.IntersectsRect(window), inside) << trial;
    intersecting += hit ? 1 : 0;
    touching_rects += inside ? 1 : 0;
  }
  // The fuzz exercised both outcomes of both predicates.
  EXPECT_GT(intersecting, 400);
  EXPECT_LT(intersecting, 3'600);
  EXPECT_GT(touching_rects, 400);
  EXPECT_LT(touching_rects, 3'600);
}

TEST(PolylineViewTest, SignedZerosFoldInPointOrder) {
  // std::min(0.0, -0.0) keeps its first argument, so the MBR's zero signs
  // follow the point order; view and owner fold in the same order.
  const std::vector<Point> points = {{0.0, -0.0}, {-0.0, 0.0}};
  const PolylineView view(points);
  EXPECT_TRUE(SameBits(view.Mbr(), Polyline(points).Mbr()));
  EXPECT_FALSE(std::signbit(view.Mbr().xl));
  EXPECT_TRUE(std::signbit(view.Mbr().yl));
}

TEST(PolylineViewTest, EmptyViewMatchesTheEmptyOwner) {
  const PolylineView view;
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(SameBits(view.Mbr(), Rect::Empty()));
  EXPECT_TRUE(SameBits(view.Mbr(), Polyline().Mbr()));
  EXPECT_EQ(view.Length(), 0.0);
  EXPECT_FALSE(view.Intersects(Polyline({{0, 0}, {1, 1}})));
  EXPECT_FALSE(view.IntersectsRect(Rect(-1, -1, 1, 1)));
}

}  // namespace
}  // namespace psj
