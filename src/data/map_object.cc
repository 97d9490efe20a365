#include "data/map_object.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "util/check.h"
#include "util/string_util.h"

namespace psj {
namespace {

constexpr uint64_t kStoreMagic = 0x50534a4f424a5331ULL;  // "PSJOBJS1"

// The file holds each point as x then y, the layout of Point, so a run of
// points moves with one fread or fwrite.
static_assert(sizeof(Point) == 2 * sizeof(double));

// An object's header in the file: its id and its point count.
constexpr uint64_t kObjectHeaderBytes = 2 * sizeof(uint64_t);

// Offsets are 32-bit, so one store holds at most this many points.
constexpr uint64_t kMaxPoints = std::numeric_limits<uint32_t>::max();

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
bool WriteValue(std::FILE* f, const T& value) {
  return std::fwrite(&value, sizeof(T), 1, f) == 1;
}

template <typename T>
bool ReadValue(std::FILE* f, T* value) {
  return std::fread(value, sizeof(T), 1, f) == 1;
}

}  // namespace

MapObject ObjectStore::Get(uint64_t id) const {
  PSJ_CHECK_LT(id, size());
  const uint32_t begin = offsets_[id];
  return MapObject{id, PolylineView(std::span<const Point>(
                           points_.data() + begin, offsets_[id + 1] - begin))};
}

uint64_t ObjectStore::Add(std::span<const Point> points) {
  PSJ_CHECK_LE(points.size(), kMaxPoints - points_.size())
      << "an object store holds at most 2^32 - 1 points";
  if (offsets_.empty()) {
    offsets_.push_back(0);
  }
  points_.insert(points_.end(), points.begin(), points.end());
  offsets_.push_back(static_cast<uint32_t>(points_.size()));
  return size() - 1;
}

void ObjectStore::Reserve(size_t num_objects) {
  offsets_.reserve(num_objects + 1);
}

void ObjectStore::ShrinkToFit() {
  points_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

size_t ObjectStore::bytes() const {
  return points_.capacity() * sizeof(Point) +
         offsets_.capacity() * sizeof(uint32_t);
}

Status ObjectStore::SaveToFile(const std::string& path) const {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::Internal("cannot open for writing: " + path);
  }
  if (!WriteValue(f.get(), kStoreMagic) ||
      !WriteValue(f.get(), static_cast<uint64_t>(size()))) {
    return Status::Internal("write failure: " + path);
  }
  for (const MapObject& obj : objects()) {
    const std::span<const Point> points = obj.geometry.points();
    if (!WriteValue(f.get(), obj.id) ||
        !WriteValue(f.get(), static_cast<uint64_t>(points.size())) ||
        std::fwrite(points.data(), sizeof(Point), points.size(), f.get()) !=
            points.size()) {
      return Status::Internal("write failure: " + path);
    }
  }
  return Status::OK();
}

StatusOr<ObjectStore> ObjectStore::LoadFromFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  // Every count is checked against the bytes the file has left before
  // anything is allocated for it.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  const long file_bytes = std::ftell(f.get());
  if (file_bytes < 0 || std::fseek(f.get(), 0, SEEK_SET) != 0) {
    return Status::Internal("cannot seek: " + path);
  }
  uint64_t magic = 0;
  uint64_t count = 0;
  if (!ReadValue(f.get(), &magic) || magic != kStoreMagic) {
    return Status::Corruption("bad object store magic: " + path);
  }
  if (!ReadValue(f.get(), &count)) {
    return Status::Corruption("truncated object store: " + path);
  }
  uint64_t remaining = static_cast<uint64_t>(file_bytes) - 2 * sizeof(uint64_t);
  if (count > remaining / kObjectHeaderBytes) {
    return Status::Corruption("object count overruns the file: " + path);
  }
  ObjectStore store;
  store.offsets_.reserve(count + 1);
  store.offsets_.push_back(0);
  // The bytes after every header bound the points; in a well-formed file
  // they are exactly the points.
  store.points_.reserve(std::min(
      kMaxPoints, (remaining - count * kObjectHeaderBytes) / sizeof(Point)));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id = 0;
    uint64_t num_points = 0;
    if (!ReadValue(f.get(), &id) || !ReadValue(f.get(), &num_points)) {
      return Status::Corruption("truncated object store: " + path);
    }
    remaining -= kObjectHeaderBytes;
    if (id != i) {
      return Status::Corruption("non-dense object ids: " + path);
    }
    const uint64_t headers_left = (count - i - 1) * kObjectHeaderBytes;
    if (num_points > (remaining - headers_left) / sizeof(Point)) {
      return Status::Corruption("point count overruns the file: " + path);
    }
    if (num_points > kMaxPoints - store.points_.size()) {
      return Status::OutOfRange("more than 2^32 - 1 points: " + path);
    }
    const size_t begin = store.points_.size();
    store.points_.resize(begin + num_points);
    Point* const points = store.points_.data() + begin;
    if (std::fread(points, sizeof(Point), num_points, f.get()) != num_points) {
      return Status::Corruption("truncated object store: " + path);
    }
    remaining -= num_points * sizeof(Point);
    for (uint64_t k = 0; k < num_points; ++k) {
      if (!std::isfinite(points[k].x) || !std::isfinite(points[k].y)) {
        return Status::Corruption(
            StringPrintf("non-finite coordinate in object %llu: ",
                         static_cast<unsigned long long>(i)) +
            path);
      }
    }
    store.offsets_.push_back(static_cast<uint32_t>(store.points_.size()));
  }
  return store;
}

}  // namespace psj
