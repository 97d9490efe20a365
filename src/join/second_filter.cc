#include "join/second_filter.h"

#include <algorithm>

#include "util/check.h"

namespace psj {

std::vector<Rect> ComputeSectionMbrs(const Polyline& line, int max_sections) {
  PSJ_CHECK_GE(max_sections, 1);
  std::vector<Rect> sections;
  const auto& points = line.points();
  if (points.empty()) {
    return sections;
  }
  if (points.size() == 1) {
    sections.push_back(Rect::FromPoint(points[0]));
    return sections;
  }
  const size_t num_segments = points.size() - 1;
  const size_t num_sections =
      std::min<size_t>(static_cast<size_t>(max_sections), num_segments);
  sections.reserve(num_sections);
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
    sections.push_back(mbr);
    segment += count;
  }
  return sections;
}

SecondFilter::SecondFilter(const ObjectStore& store, int max_sections)
    : max_sections_(max_sections) {
  PSJ_CHECK_GE(max_sections, 1);
  sections_.reserve(store.size());
  for (const MapObject& obj : store.objects()) {
    sections_.push_back(ComputeSectionMbrs(obj.geometry, max_sections));
  }
}

bool SecondFilter::CanIntersect(const std::vector<Rect>& a,
                                const std::vector<Rect>& b,
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
