#include "join/second_filter.h"

#include <algorithm>

#include "util/check.h"

namespace psj {
namespace {

// Appends the section MBRs of the polyline through `points` to `sections`.
void AppendSectionMbrs(std::span<const Point> points, int max_sections,
                       std::vector<Rect>* sections) {
  PSJ_CHECK_GE(max_sections, 1);
  if (points.empty()) {
    return;
  }
  if (points.size() == 1) {
    sections->push_back(Rect::FromPoint(points[0]));
    return;
  }
  const size_t num_segments = points.size() - 1;
  const size_t num_sections =
      std::min<size_t>(static_cast<size_t>(max_sections), num_segments);
  // Distribute segments evenly; consecutive sections share their boundary
  // vertex so the union of the section MBRs covers the whole polyline.
  const size_t base = num_segments / num_sections;
  const size_t extra = num_segments % num_sections;
  size_t segment = 0;
  for (size_t s = 0; s < num_sections; ++s) {
    const size_t count = base + (s < extra ? 1 : 0);
    Rect mbr = Rect::FromPoint(points[segment]);
    for (size_t k = 0; k < count; ++k) {
      mbr.ExpandToIncludePoint(points[segment + k + 1]);
    }
    sections->push_back(mbr);
    segment += count;
  }
}

}  // namespace

std::vector<Rect> ComputeSectionMbrs(PolylineView line, int max_sections) {
  std::vector<Rect> sections;
  AppendSectionMbrs(line.points(), max_sections, &sections);
  return sections;
}

SecondFilter::SecondFilter(const ObjectStore& store, int max_sections)
    : max_sections_(max_sections) {
  PSJ_CHECK_GE(max_sections, 1);
  offsets_.reserve(store.size() + 1);
  offsets_.push_back(0);
  for (const MapObject& obj : store.objects()) {
    AppendSectionMbrs(obj.geometry.points(), max_sections, &sections_);
    offsets_.push_back(static_cast<uint32_t>(sections_.size()));
  }
}

bool SecondFilter::CanIntersect(std::span<const Rect> a,
                                std::span<const Rect> b,
                                size_t* tests_performed) {
  // Early-out screen over at most max_sections rects a side: a full row of
  // |b| tests per miss, hit_index + 1 on the terminating row.
  size_t tests = 0;
  bool possible = false;
  for (const Rect& ra : a) {
    const auto hit = std::find_if(b.begin(), b.end(), [&](const Rect& rb) {
      return rb.Intersects(ra);
    });
    tests += static_cast<size_t>(hit - b.begin());
    if (hit != b.end()) {
      tests += 1;
      possible = true;
      break;
    }
  }
  if (tests_performed != nullptr) {
    *tests_performed = tests;
  }
  return possible;
}

}  // namespace psj
