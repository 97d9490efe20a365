#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <ranges>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "data/generator.h"
#include "data/map_builder.h"
#include "rtree/validator.h"

namespace psj {
namespace {

Geography TestGeography() { return Geography::Generate(100, 50); }

TEST(GeographyTest, GeneratesRequestedCenters) {
  const Geography geo = TestGeography();
  EXPECT_EQ(geo.centers.size(), 50u);
  EXPECT_EQ(geo.center_weights.size(), 50u);
  EXPECT_DOUBLE_EQ(geo.center_weights.back(), 1.0);
  for (const Point& c : geo.centers) {
    EXPECT_TRUE(geo.world.ContainsPoint(c));
  }
}

TEST(GeographyTest, DeterministicBySeed) {
  const Geography a = Geography::Generate(7, 20);
  const Geography b = Geography::Generate(7, 20);
  ASSERT_EQ(a.centers.size(), b.centers.size());
  for (size_t i = 0; i < a.centers.size(); ++i) {
    EXPECT_EQ(a.centers[i], b.centers[i]);
  }
}

TEST(GeographyTest, SampledPointsStayInWorld) {
  const Geography geo = TestGeography();
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(geo.world.ContainsPoint(geo.SamplePointNearCenter(rng, 0.1)));
  }
}

TEST(GeographyTest, WeightedSamplingFavorsEarlyCenters) {
  // Zipf-like weights: center 0 must be sampled far more than center 49.
  const Geography geo = TestGeography();
  Rng rng(2);
  int first = 0;
  int last = 0;
  for (int i = 0; i < 20'000; ++i) {
    const size_t c = geo.SampleCenterIndex(rng);
    if (c == 0) ++first;
    if (c == 49) ++last;
  }
  EXPECT_GT(first, 5 * std::max(1, last));
}

TEST(StreetsMapTest, CountsAndDenseIds) {
  StreetsSpec spec;
  spec.num_objects = 2'000;
  const ObjectStore objects = GenerateStreetsMap(TestGeography(), spec);
  ASSERT_EQ(objects.size(), 2'000u);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects.Get(i).id, i);
    EXPECT_GE(objects.Get(i).geometry.num_points(), 2u);
    EXPECT_TRUE(objects.Get(i).Mbr().IsValid());
  }
}

TEST(StreetsMapTest, DeterministicBySeed) {
  StreetsSpec spec;
  spec.num_objects = 500;
  const ObjectStore a = GenerateStreetsMap(TestGeography(), spec);
  const ObjectStore b = GenerateStreetsMap(TestGeography(), spec);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.Get(i).geometry.num_points(), b.Get(i).geometry.num_points());
    EXPECT_EQ(a.Get(i).Mbr(), b.Get(i).Mbr());
  }
}

TEST(StreetsMapTest, ObjectsAreSmall) {
  StreetsSpec spec;
  spec.num_objects = 2'000;
  const ObjectStore objects = GenerateStreetsMap(TestGeography(), spec);
  double total_extent = 0.0;
  for (const MapObject& obj : objects.objects()) {
    total_extent += obj.Mbr().Margin();
  }
  // Streets are tiny: average half-perimeter well under 2% of the world.
  EXPECT_LT(total_extent / static_cast<double>(objects.size()), 0.02);
}

TEST(MixedMapTest, CountsAndDenseIds) {
  MixedSpec spec;
  spec.num_objects = 3'000;
  const ObjectStore objects = GenerateMixedMap(TestGeography(), spec);
  ASSERT_EQ(objects.size(), 3'000u);
  for (size_t i = 0; i < objects.size(); ++i) {
    EXPECT_EQ(objects.Get(i).id, i);
    EXPECT_GE(objects.Get(i).geometry.num_points(), 2u);
  }
}

TEST(MixedMapTest, DeterministicBySeed) {
  MixedSpec spec;
  spec.num_objects = 800;
  const ObjectStore a = GenerateMixedMap(TestGeography(), spec);
  const ObjectStore b = GenerateMixedMap(TestGeography(), spec);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.Get(i).Mbr(), b.Get(i).Mbr());
  }
}

TEST(MixedMapTest, FragmentsChainTogether) {
  // Consecutive fragments of one feature share endpoints; verify at least
  // some do (the generator chops long paths into chained objects).
  MixedSpec spec;
  spec.num_objects = 500;
  const ObjectStore objects = GenerateMixedMap(TestGeography(), spec);
  int chained = 0;
  for (size_t i = 1; i < objects.size(); ++i) {
    const MapObject prev = objects.Get(i - 1);
    const MapObject cur = objects.Get(i);
    if (prev.geometry.points().back() == cur.geometry.points().front()) {
      ++chained;
    }
  }
  EXPECT_GT(chained, 100);
}

TEST(UniformSegmentsTest, BasicProperties) {
  const ObjectStore objects = GenerateUniformSegments(9, 300, 0.01);
  ASSERT_EQ(objects.size(), 300u);
  for (const MapObject& obj : objects.objects()) {
    EXPECT_EQ(obj.geometry.num_points(), 2u);
    EXPECT_TRUE(Rect(0, 0, 1, 1).Contains(obj.Mbr()));
  }
}

TEST(ObjectStoreTest, LookupById) {
  ObjectStore store(GenerateUniformSegments(3, 50, 0.01));
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(store.Get(17).id, 17u);
}

TEST(ObjectStoreTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/psj_store_test.bin";
  ObjectStore store(GenerateUniformSegments(4, 120, 0.02));
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto loaded = ObjectStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    EXPECT_EQ(loaded->Get(i).Mbr(), store.Get(i).Mbr());
    EXPECT_EQ(loaded->Get(i).geometry.points().size(),
              store.Get(i).geometry.points().size());
  }
  std::remove(path.c_str());
}

TEST(ObjectStoreTest, LoadMissingFileFails) {
  EXPECT_TRUE(ObjectStore::LoadFromFile("/nonexistent/psj.bin")
                  .status()
                  .IsNotFound());
}

// ---- The flat store ---------------------------------------------------------

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::vector<unsigned char> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// An object-store file written word by word: the magic, the count, then
// per object its id, its point count and its coordinates.
class StoreFile {
 public:
  StoreFile& Word(uint64_t word) {
    const auto* p = reinterpret_cast<const unsigned char*>(&word);
    bytes_.insert(bytes_.end(), p, p + sizeof(word));
    return *this;
  }
  StoreFile& Coord(double value) { return Word(std::bit_cast<uint64_t>(value)); }
  StoreFile& Header(uint64_t count) {
    return Word(0x50534a4f424a5331ULL).Word(count);
  }
  const std::vector<unsigned char>& bytes() const { return bytes_; }

 private:
  std::vector<unsigned char> bytes_;
};

Status LoadBytes(const std::vector<unsigned char>& bytes) {
  const std::string path = ::testing::TempDir() + "/psj_store_bad.bin";
  WriteBytes(path, bytes);
  const Status status = ObjectStore::LoadFromFile(path).status();
  std::remove(path.c_str());
  return status;
}

TEST(ObjectStoreTest, AddGetRoundTrip) {
  ObjectStore store;
  const std::vector<Point> a = {{0.5, 0.25}, {0.75, -0.0}, {0.125, 1.0}};
  const std::vector<Point> b = {{2.0, 3.0}};
  const std::vector<Point> none;
  EXPECT_EQ(store.Add(a), 0u);
  EXPECT_EQ(store.Add(none), 1u);
  EXPECT_EQ(store.Add(b), 2u);
  ASSERT_EQ(store.size(), 3u);
  const std::vector<Point> got_a(store.Get(0).geometry.points().begin(),
                                 store.Get(0).geometry.points().end());
  EXPECT_EQ(got_a, a);
  EXPECT_TRUE(store.Get(1).geometry.empty());
  EXPECT_EQ(store.Get(1).Mbr(), Rect::Empty());
  EXPECT_EQ(store.Get(2).geometry.num_points(), 1u);
  EXPECT_EQ(store.Get(2).geometry.points()[0], b[0]);
  // The MBR is the owner's fold, bit for bit.
  const Rect owner = Polyline(a).Mbr();
  const Rect view = store.Get(0).Mbr();
  EXPECT_EQ(std::memcmp(&owner, &view, sizeof(Rect)), 0);
}

TEST(ObjectStoreTest, ObjectsYieldsEveryObjectInIdOrder) {
  const ObjectStore store = GenerateUniformSegments(6, 40, 0.02);
  const ObjectRange objects = store.objects();
  static_assert(std::ranges::random_access_range<ObjectRange>);
  ASSERT_EQ(objects.size(), 40u);
  ASSERT_EQ(static_cast<int64_t>(objects.end() - objects.begin()), 40);
  uint64_t expected = 0;
  for (const MapObject& object : objects) {
    EXPECT_EQ(object.id, expected);
    EXPECT_EQ(object.Mbr(), store.Get(expected).Mbr());
    ++expected;
  }
  EXPECT_EQ(expected, 40u);
  EXPECT_EQ(objects[17].id, 17u);
  EXPECT_EQ(objects.begin()[39].id, 39u);
  EXPECT_EQ((*(objects.end() - 1)).id, 39u);
}

TEST(ObjectStoreTest, BytesIsTheCapacityOfBothArrays) {
  ObjectStore store;
  EXPECT_EQ(store.bytes(), 0u);
  const std::vector<Point> segment = {{0, 0}, {1, 1}};
  for (int i = 0; i < 100; ++i) {
    store.Add(segment);
  }
  EXPECT_GE(store.bytes(), 200 * sizeof(Point) + 101 * sizeof(uint32_t));
  store.ShrinkToFit();
  EXPECT_EQ(store.bytes(), 200 * sizeof(Point) + 101 * sizeof(uint32_t));
  // The generators leave no growth slack.
  const ObjectStore generated = GenerateUniformSegments(7, 250, 0.01);
  EXPECT_EQ(generated.bytes(), 500 * sizeof(Point) + 251 * sizeof(uint32_t));
}

TEST(ObjectStoreTest, EmptyStore) {
  const ObjectStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.objects().empty());
  EXPECT_EQ(store.objects().begin(), store.objects().end());
  EXPECT_EQ(GenerateUniformSegments(8, 0, 0.01).size(), 0u);
  const std::string path = ::testing::TempDir() + "/psj_store_empty.bin";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  const auto loaded = ObjectStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
  std::remove(path.c_str());
}

TEST(ObjectStoreTest, MovedFromStoreIsEmpty) {
  ObjectStore store = GenerateUniformSegments(9, 30, 0.01);
  const Rect mbr = store.Get(29).Mbr();
  ObjectStore moved = std::move(store);
  ASSERT_EQ(moved.size(), 30u);
  EXPECT_EQ(moved.Get(29).Mbr(), mbr);
  // A moved-from vector is empty, so the moved-from store is too.
  EXPECT_EQ(store.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(store.objects().empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(store.Add(std::vector<Point>{{1, 2}}), 0u);
  EXPECT_EQ(store.size(), 1u);
}

// FNV-1a of SaveToFile's bytes, recorded before the store became flat: the
// file format is unchanged byte for byte.
TEST(ObjectStoreTest, SavedBytesAreUnchanged) {
  const std::string path = ::testing::TempDir() + "/psj_store_bytes.bin";
  ASSERT_TRUE(GenerateUniformSegments(4, 120, 0.02).SaveToFile(path).ok());
  std::vector<unsigned char> bytes = ReadBytes(path);
  EXPECT_EQ(bytes.size(), 5'776u);
  EXPECT_EQ(Fnv1a(bytes.data(), bytes.size(), kFnvOffset),
            0x421b9b9480c12613ULL);
  MixedSpec spec;
  spec.num_objects = 500;
  ASSERT_TRUE(
      GenerateMixedMap(TestGeography(), spec).SaveToFile(path).ok());
  bytes = ReadBytes(path);
  EXPECT_EQ(bytes.size(), 39'920u);
  EXPECT_EQ(Fnv1a(bytes.data(), bytes.size(), kFnvOffset),
            0xc3013345dd135986ULL);
  std::remove(path.c_str());
}

TEST(ObjectStoreTest, LoadRejectsATruncatedFile) {
  const std::string path = ::testing::TempDir() + "/psj_store_cut.bin";
  ASSERT_TRUE(GenerateUniformSegments(4, 120, 0.02).SaveToFile(path).ok());
  std::vector<unsigned char> bytes = ReadBytes(path);
  std::remove(path.c_str());
  for (const size_t cut : {size_t{1}, size_t{8}, size_t{16}, size_t{24},
                           bytes.size() - 8, bytes.size() - 12}) {
    const std::vector<unsigned char> prefix(bytes.begin(),
                                            bytes.end() - static_cast<long>(cut));
    EXPECT_TRUE(LoadBytes(prefix).IsCorruption()) << "cut " << cut;
  }
}

TEST(ObjectStoreTest, LoadRejectsCountsThatOverrunTheFile) {
  // A point count of 2^62 would ask for 2^66 bytes.
  StoreFile points;
  points.Header(1).Word(0).Word(uint64_t{1} << 62).Coord(0.5).Coord(0.5);
  EXPECT_TRUE(LoadBytes(points.bytes()).IsCorruption());
  // So would an object count of 2^62.
  StoreFile objects;
  objects.Header(uint64_t{1} << 62).Word(0).Word(1).Coord(0.5).Coord(0.5);
  EXPECT_TRUE(LoadBytes(objects.bytes()).IsCorruption());
  // The counts of a well-formed file pass.
  StoreFile good;
  good.Header(1).Word(0).Word(1).Coord(0.5).Coord(0.5);
  EXPECT_TRUE(LoadBytes(good.bytes()).ok());
}

TEST(ObjectStoreTest, LoadRejectsNonFiniteCoordinates) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    StoreFile x;
    x.Header(2).Word(0).Word(1).Coord(0.5).Coord(0.5);
    x.Word(1).Word(2).Coord(0.25).Coord(0.25).Coord(bad).Coord(0.5);
    EXPECT_TRUE(LoadBytes(x.bytes()).IsCorruption()) << bad;
    StoreFile y;
    y.Header(1).Word(0).Word(1).Coord(0.5).Coord(bad);
    EXPECT_TRUE(LoadBytes(y.bytes()).IsCorruption()) << bad;
  }
}

TEST(ObjectStoreTest, LoadRejectsNonDenseIds) {
  StoreFile file;
  file.Header(2).Word(0).Word(1).Coord(0.5).Coord(0.5);
  file.Word(5).Word(1).Coord(0.25).Coord(0.25);
  EXPECT_TRUE(LoadBytes(file.bytes()).IsCorruption());
}

// The generators' exact output: an FNV-1a hash over every object's point
// count and point bytes, recorded before the store became flat. The page
// fingerprints of rtree_test pin only the MBRs; the answers depend on the
// points.
struct GeneratedMaps {
  const char* name;
  double scale;
  uint64_t streets;
  uint64_t mixed;
};

void PrintTo(const GeneratedMaps& maps, std::ostream* os) { *os << maps.name; }

uint64_t GeometryFingerprint(const ObjectStore& store) {
  uint64_t hash = kFnvOffset;
  for (const MapObject& object : store.objects()) {
    const std::span<const Point> points = object.geometry.points();
    const uint64_t count = points.size();
    hash = Fnv1a(&count, sizeof(count), hash);
    for (const Point& p : points) {
      const uint64_t x = std::bit_cast<uint64_t>(p.x);
      const uint64_t y = std::bit_cast<uint64_t>(p.y);
      hash = Fnv1a(&x, sizeof(x), hash);
      hash = Fnv1a(&y, sizeof(y), hash);
    }
  }
  return hash;
}

class GeneratorFingerprintTest
    : public ::testing::TestWithParam<GeneratedMaps> {};

TEST_P(GeneratorFingerprintTest, PaperMapsKeepTheirPoints) {
  const GeneratedMaps& maps = GetParam();
  const PaperWorkloadSpec spec = PaperWorkloadSpec().Scaled(maps.scale);
  const Geography geography =
      Geography::Generate(spec.geography_seed, spec.num_centers);
  EXPECT_EQ(GeometryFingerprint(GenerateStreetsMap(geography, spec.streets)),
            maps.streets);
  EXPECT_EQ(GeometryFingerprint(GenerateMixedMap(geography, spec.mixed)),
            maps.mixed);
}

INSTANTIATE_TEST_SUITE_P(
    PaperScales, GeneratorFingerprintTest,
    ::testing::Values(GeneratedMaps{"Scale005", 0.05, 0x91966188296b45fdULL,
                                    0xa30daf7b535fdd80ULL},
                      GeneratedMaps{"FullScale", 1.0, 0xdc57400b8529eaa7ULL,
                                    0xf7c3ec37f16200f2ULL}),
    [](const ::testing::TestParamInfo<GeneratedMaps>& info) {
      return std::string(info.param.name);
    });

TEST(MapBuilderTest, InsertionTreeIsValidAndComplete) {
  const ObjectStore objects = GenerateUniformSegments(5, 2'000, 0.005);
  const RStarTree tree = BuildTreeFromObjects(1, objects.objects());
  EXPECT_TRUE(ValidateRTree(tree).ok());
  EXPECT_EQ(tree.num_data_entries(), 2'000);
}

TEST(MapBuilderTest, StrTreeIsValidAndComplete) {
  const ObjectStore objects = GenerateUniformSegments(5, 2'000, 0.005);
  const RStarTree tree =
      BuildTreeFromObjects(1, objects.objects(), TreeBuildMethod::kStr);
  EXPECT_TRUE(ValidateRTree(tree, /*enforce_min_fill=*/false).ok());
  EXPECT_EQ(tree.num_data_entries(), 2'000);
}

TEST(MapBuilderTest, TreeMatchesTheStoreItWasBuiltFrom) {
  const ObjectStore store = GenerateUniformSegments(5, 2'000, 0.005);
  EXPECT_TRUE(CheckTreeMatchesStore(
                  BuildTreeFromObjects(1, store.objects()), store)
                  .ok());
  EXPECT_TRUE(CheckTreeMatchesStore(
                  BuildTreeFromObjects(1, store.objects(),
                                       TreeBuildMethod::kStr),
                  store)
                  .ok());
}

TEST(MapBuilderTest, TreeOfALargerStoreIsCorruption) {
  // Two generate runs under one prefix: a 4,000-object tree beside a
  // 2,000-object store names ids the store lacks.
  const ObjectStore large = GenerateUniformSegments(5, 4'000, 0.005);
  const ObjectStore small = GenerateUniformSegments(6, 2'000, 0.005);
  const RStarTree tree = BuildTreeFromObjects(1, large.objects());
  EXPECT_TRUE(CheckTreeMatchesStore(tree, small).IsCorruption());
  // The other way round every id is in range, but half the store has no
  // entry.
  EXPECT_TRUE(CheckTreeMatchesStore(BuildTreeFromObjects(1, small.objects()),
                                    large)
                  .IsCorruption());
}

TEST(MapBuilderTest, EntryIdPastTheStoreIsCorruption) {
  // As many entries as objects, but one id past the end.
  const ObjectStore store = GenerateUniformSegments(5, 200, 0.005);
  RStarTree tree(1);
  for (const MapObject& object : store.objects()) {
    tree.Insert(object.Mbr(), object.id == 199 ? 200 : object.id);
  }
  tree.Seal();
  const Status status = CheckTreeMatchesStore(tree, store);
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_NE(status.ToString().find("object 200"), std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace psj
