#ifndef PSJ_GEO_POLYLINE_H_
#define PSJ_GEO_POLYLINE_H_

#include <span>
#include <utility>
#include <vector>

#include "geo/rect.h"

namespace psj {

/// True iff the closed segments a0-a1 and b0-b1 share at least one point
/// (proper crossing, touching endpoints, or collinear overlap).
bool SegmentsIntersect(const Point& a0, const Point& a1, const Point& b0,
                       const Point& b1);

/// True iff the closed segment a-b shares at least one point with the
/// (closed) rectangle — an endpoint inside, or a crossing of its boundary.
bool SegmentIntersectsRect(const Point& a, const Point& b, const Rect& rect);

/// \brief A non-owning view of an open polygonal chain, the exact geometry
/// of the synthetic TIGER-like objects (street segments, rivers,
/// boundaries, railway tracks).
///
/// The refinement step of the spatial join tests two polylines for
/// intersection; in the experiments this CPU cost is charged in *virtual*
/// time per the paper's waiting-period model, while the boolean answer is
/// computed here for correctness checking. Every predicate is written once,
/// here: `ObjectStore` hands out views of its flat point array, and
/// `Polyline`, the owner, forwards to its view. The points must outlive the
/// view.
class PolylineView {
 public:
  PolylineView() = default;
  /// Views `points`. The MBR is folded here, once: Rect::Empty() expanded
  /// by every point in order.
  explicit PolylineView(std::span<const Point> points);

  std::span<const Point> points() const { return points_; }
  size_t num_points() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  /// Minimum bounding rectangle; Rect::Empty() for an empty polyline.
  const Rect& Mbr() const { return mbr_; }

  /// Sum of segment lengths.
  double Length() const;

  /// True iff any segment of this polyline intersects any segment of
  /// `other`, or either is a single point lying on the other. Two empty
  /// polylines never intersect.
  bool Intersects(const PolylineView& other) const;

  /// True iff the polyline shares at least one point with the closed
  /// rectangle (the exact test of a window query's refinement step).
  bool IntersectsRect(const Rect& rect) const;

 private:
  std::span<const Point> points_;
  Rect mbr_ = Rect::Empty();
};

/// \brief An owned polyline, for geometry built by hand (tests, examples,
/// micro benchmarks). Converts to a PolylineView, which its predicates
/// forward to; the maps themselves live in an ObjectStore.
class Polyline {
 public:
  Polyline() = default;
  explicit Polyline(std::vector<Point> points) : points_(std::move(points)) {}

  const std::vector<Point>& points() const { return points_; }
  size_t num_points() const { return points_.size(); }
  bool empty() const { return points_.empty(); }

  void AddPoint(const Point& p) { points_.push_back(p); }

  /// A view of the points; valid until the next AddPoint. The conversion
  /// is implicit, as std::string's to std::string_view is.
  PolylineView view() const { return PolylineView(points_); }
  operator PolylineView() const { return view(); }

  Rect Mbr() const { return view().Mbr(); }
  double Length() const { return view().Length(); }
  bool Intersects(const PolylineView& other) const {
    return view().Intersects(other);
  }
  bool IntersectsRect(const Rect& rect) const {
    return view().IntersectsRect(rect);
  }

 private:
  std::vector<Point> points_;
};

}  // namespace psj

#endif  // PSJ_GEO_POLYLINE_H_
