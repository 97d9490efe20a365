#include "geo/plane_sweep.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace psj {

std::vector<uint32_t> SortedOrderByXl(std::span<const Rect> rects) {
  std::vector<uint32_t> order(rects.size());
  std::iota(order.begin(), order.end(), 0u);
  // NaN keys last, as in the view overload (rect_batch.h).
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const double ka = rects[a].xl;
    const double kb = rects[b].xl;
    if (ka < kb) return true;
    if (kb < ka) return false;
    const bool a_nan = std::isnan(ka);
    if (a_nan != std::isnan(kb)) return !a_nan;
    return a < b;
  });
  return order;
}

}  // namespace psj
