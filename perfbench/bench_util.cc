#include "perfbench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <thread>

#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "native/native_join.h"

namespace psj::perfbench {

MapSpec BenchSpec(uint64_t seed, int k, double scale) {
  MapSpec spec;
  spec.workload = PaperWorkloadSpec().Scaled(scale);
  spec.workload.streets.seed += kRealizations * seed + static_cast<uint64_t>(k);
  const double side = std::sqrt(scale);
  spec.world = Rect(0.0, 0.0, side, side);
  return spec;
}

namespace {

std::vector<Rect> RectsById(const ObjectStore& store) {
  std::vector<Rect> rects(store.size());
  for (const MapObject& object : store.objects()) {
    rects[object.id] = object.Mbr();
  }
  return rects;
}

/// One map of a set-up, generated and indexed on its own thread.
struct MapPart {
  ObjectStore store;
  std::unique_ptr<RStarTree> tree;
  int64_t generate_ns = 0;
  int64_t build_ns = 0;
};

void BuildPart(const MapSpec& spec, bool streets, MapPart* part) {
  const int64_t begin = NowNs();
  const Geography geography = Geography::Generate(
      spec.workload.geography_seed, spec.workload.num_centers, spec.world);
  part->store = ObjectStore(streets
                                ? GenerateStreetsMap(geography,
                                                     spec.workload.streets)
                                : GenerateMixedMap(geography,
                                                   spec.workload.mixed));
  const int64_t generated = NowNs();
  part->tree = std::make_unique<RStarTree>(BuildTreeFromObjects(
      streets ? 1 : 2, part->store.objects(), spec.workload.build));
  part->generate_ns = generated - begin;
  part->build_ns = NowNs() - generated;
}

std::unique_ptr<Maps> SetUp(const MapSpec& spec) {
  const int64_t begin = NowNs();
  MapPart r;
  MapPart s;
  std::thread mixed(BuildPart, std::cref(spec), false, &s);
  BuildPart(spec, true, &r);
  mixed.join();
  auto maps = std::make_unique<Maps>(std::move(r.store), std::move(s.store),
                                     std::move(*r.tree), std::move(*s.tree));
  SetupTimes& times = maps->times;
  times.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
  times.generate_s = static_cast<double>(r.generate_ns + s.generate_ns) * 1e-9;
  times.build_s = static_cast<double>(r.build_ns + s.build_ns) * 1e-9;
  times.seal_ms = static_cast<double>(maps->tree_r.last_seal_micros() +
                                      maps->tree_s.last_seal_micros()) *
                  1e-3;
  return maps;
}

}  // namespace

std::vector<std::unique_ptr<Maps>> SetUpMaps(
    const std::vector<MapSpec>& specs) {
  std::vector<std::unique_ptr<Maps>> built(specs.size());
  std::vector<std::thread> threads;
  for (size_t k = 1; k < specs.size(); ++k) {
    threads.emplace_back([&, k] { built[k] = SetUp(specs[k]); });
  }
  if (!specs.empty()) {
    built[0] = SetUp(specs[0]);
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  return built;
}

Rect MapDomain(const Maps& maps) {
  return maps.tree_r.root_mbr().UnionWith(maps.tree_s.root_mbr());
}

std::vector<RTreeEntry> EntriesOf(const ObjectStore& store) {
  std::vector<RTreeEntry> entries;
  entries.reserve(store.size());
  for (const MapObject& object : store.objects()) {
    entries.push_back(RTreeEntry{object.Mbr(), object.id});
  }
  return entries;
}

double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  char line[256];
  double kib = std::numeric_limits<double>::quiet_NaN();
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

Oracle::Oracle(const Maps& maps)
    : candidates(SequentialRTreeJoin(maps.tree_r, maps.tree_s).candidates),
      rects_r(RectsById(maps.store_r)),
      rects_s(RectsById(maps.store_s)) {
  native::SortPairs(&candidates);
}

}  // namespace psj::perfbench
