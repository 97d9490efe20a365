#include "geo/polyline.h"

#include <cmath>

namespace psj {
namespace {

// Orientation of the ordered triple (a, b, c): > 0 counter-clockwise,
// < 0 clockwise, 0 collinear.
double Cross(const Point& a, const Point& b, const Point& c) {
  return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
}

// True iff point p lies on the closed segment a-b, given that a, b, p are
// collinear.
bool OnSegment(const Point& a, const Point& b, const Point& p) {
  return std::min(a.x, b.x) <= p.x && p.x <= std::max(a.x, b.x) &&
         std::min(a.y, b.y) <= p.y && p.y <= std::max(a.y, b.y);
}

}  // namespace

bool SegmentsIntersect(const Point& a0, const Point& a1, const Point& b0,
                       const Point& b1) {
  const double d1 = Cross(b0, b1, a0);
  const double d2 = Cross(b0, b1, a1);
  const double d3 = Cross(a0, a1, b0);
  const double d4 = Cross(a0, a1, b1);

  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;  // Proper crossing.
  }
  // Touching / collinear cases.
  if (d1 == 0 && OnSegment(b0, b1, a0)) return true;
  if (d2 == 0 && OnSegment(b0, b1, a1)) return true;
  if (d3 == 0 && OnSegment(a0, a1, b0)) return true;
  if (d4 == 0 && OnSegment(a0, a1, b1)) return true;
  return false;
}

bool SegmentIntersectsRect(const Point& a, const Point& b, const Rect& rect) {
  if (rect.ContainsPoint(a) || rect.ContainsPoint(b)) {
    return true;
  }
  // Quick reject on the segment's bounding box.
  const Rect seg_box = Rect::FromPoint(a).UnionWith(Rect::FromPoint(b));
  if (!seg_box.Intersects(rect)) {
    return false;
  }
  // Both endpoints outside: the segment can only meet the rectangle by
  // crossing its boundary.
  const Point corners[4] = {{rect.xl, rect.yl},
                            {rect.xu, rect.yl},
                            {rect.xu, rect.yu},
                            {rect.xl, rect.yu}};
  for (int e = 0; e < 4; ++e) {
    if (SegmentsIntersect(a, b, corners[e], corners[(e + 1) % 4])) {
      return true;
    }
  }
  return false;
}

PolylineView::PolylineView(std::span<const Point> points) : points_(points) {
  for (const Point& p : points_) {
    mbr_.ExpandToIncludePoint(p);
  }
}

double PolylineView::Length() const {
  double total = 0.0;
  for (size_t i = 1; i < points_.size(); ++i) {
    const double dx = points_[i].x - points_[i - 1].x;
    const double dy = points_[i].y - points_[i - 1].y;
    total += std::hypot(dx, dy);
  }
  return total;
}

bool PolylineView::Intersects(const PolylineView& other) const {
  if (points_.empty() || other.points_.empty()) {
    return false;
  }
  if (!mbr_.Intersects(other.mbr_)) {
    return false;
  }
  // Single-point polylines degenerate to point-on-segment tests, which the
  // segment routine already handles via zero-length segments.
  const size_t a_segments = points_.size() == 1 ? 1 : points_.size() - 1;
  const size_t b_segments =
      other.points_.size() == 1 ? 1 : other.points_.size() - 1;
  for (size_t i = 0; i < a_segments; ++i) {
    const Point& a0 = points_[i];
    const Point& a1 = points_[std::min(i + 1, points_.size() - 1)];
    const Rect seg_a = Rect::FromPoint(a0).UnionWith(Rect::FromPoint(a1));
    if (!seg_a.Intersects(other.mbr_)) {
      continue;
    }
    for (size_t j = 0; j < b_segments; ++j) {
      const Point& b0 = other.points_[j];
      const Point& b1 =
          other.points_[std::min(j + 1, other.points_.size() - 1)];
      if (SegmentsIntersect(a0, a1, b0, b1)) {
        return true;
      }
    }
  }
  return false;
}

bool PolylineView::IntersectsRect(const Rect& rect) const {
  if (points_.empty() || !mbr_.Intersects(rect)) {
    return false;
  }
  if (points_.size() == 1) {
    return rect.ContainsPoint(points_[0]);
  }
  for (size_t i = 1; i < points_.size(); ++i) {
    if (SegmentIntersectsRect(points_[i - 1], points_[i], rect)) {
      return true;
    }
  }
  return false;
}

}  // namespace psj
