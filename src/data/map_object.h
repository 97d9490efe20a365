#ifndef PSJ_DATA_MAP_OBJECT_H_
#define PSJ_DATA_MAP_OBJECT_H_

#include <cstddef>
#include <cstdint>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geo/polyline.h"
#include "geo/rect.h"
#include "util/statusor.h"

namespace psj {

/// One spatial object of a map: a polyline (street segment, river,
/// administrative boundary, railway track) with a dense object id. The MBR
/// is the object's conservative approximation used by the filter step.
/// A value handed out by ObjectStore: the geometry views the store's
/// points, so it is valid while the store lives and is not appended to.
struct MapObject {
  uint64_t id = 0;
  PolylineView geometry;

  Rect Mbr() const { return geometry.Mbr(); }
};

/// \brief The exact-geometry store of one spatial relation.
///
/// Object ids are dense (0 … size-1). In the paper's setup the exact
/// geometry lives in clusters on disk, one cluster per R*-tree data page
/// ([BK 94]); here the bytes are host-resident while the cluster I/O cost is
/// charged by the disk model. The store answers the refinement step's
/// ground-truth intersection tests.
///
/// One flat layout per map: every point of every object in one array, in
/// object-id order, and one offset per object plus an end offset, so a map
/// is two heap blocks rather than one per object. Nothing else is stored:
/// Get() views an object's points and folds its MBR from them, the same
/// bits Polyline computes.
class ObjectStore {
 public:
  ObjectStore() = default;

  size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  MapObject Get(uint64_t id) const;

  /// Every object in id order, as values (a random-access range).
  auto objects() const {
    return std::views::iota(uint64_t{0}, static_cast<uint64_t>(size())) |
           std::views::transform([this](uint64_t id) { return Get(id); });
  }

  /// Appends one object and returns its id (the previous size()). The
  /// points are copied; they must not be this store's own.
  uint64_t Add(std::span<const Point> points);

  /// Reserves room for `num_objects` objects' offsets.
  void Reserve(size_t num_objects);

  /// Releases the growth slack of both arrays; call once the map is
  /// complete.
  void ShrinkToFit();

  /// Heap bytes held: the capacity of the point and offset arrays.
  size_t bytes() const;

  /// Serializes the store to a binary file. Returns an error status on I/O
  /// failure.
  Status SaveToFile(const std::string& path) const;

  /// Loads a store previously written by SaveToFile. A file whose counts
  /// overrun its bytes, whose ids are not dense, or that holds a
  /// non-finite coordinate is rejected with Corruption before the
  /// allocation it would ask for.
  static StatusOr<ObjectStore> LoadFromFile(const std::string& path);

 private:
  std::vector<Point> points_;
  /// Object i's points are points_[offsets_[i], offsets_[i + 1]); empty
  /// until the first Add.
  std::vector<uint32_t> offsets_;
};

/// What ObjectStore::objects() returns.
using ObjectRange = decltype(std::declval<const ObjectStore&>().objects());

}  // namespace psj

#endif  // PSJ_DATA_MAP_OBJECT_H_
