// Ablation (beyond the paper): insertion-built R*-trees (what the paper
// used) vs. STR bulk-loaded trees — tree shape and parallel join cost —
// plus the entry-storage ablation: per-node entry vectors vs. the sealed
// tree-level arena, measured in heap allocations.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "bench/bench_common.h"
#include "rtree/rstar_tree.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace {
// Heap-allocation counters for the entry-storage ablation. Replacing the
// global operator new is safe here because this is a standalone bench
// binary; the default operator new[] forwards to operator new, so array
// news are counted too.
std::atomic<uint64_t> g_alloc_calls{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t size) {
  // order: relaxed — single-threaded bench; counters are plain tallies with
  // no publication role (atomics only because operator new must be
  // thread-safe by contract).
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);  // order: as above
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace psj {
namespace {

struct AllocStats {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

template <typename Fn>
AllocStats CountAllocs(Fn&& fn) {
  // order: relaxed — same thread as every fetch_add (see operator new).
  const uint64_t c0 = g_alloc_calls.load(std::memory_order_relaxed);
  const uint64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);  // order: ditto
  fn();
  // order: relaxed — same thread as the increments being counted.
  return AllocStats{g_alloc_calls.load(std::memory_order_relaxed) - c0,
                    g_alloc_bytes.load(std::memory_order_relaxed) - b0};
}

// Insertion-builds one tree with the arena on/off and reports heap
// allocations for the build and for Seal(). With the arena, Seal compacts
// every per-node entry vector into one tree-level allocation (plus the SoA
// planes); without it, Seal builds only the SoA planes and the per-node
// vectors stay live.
void ReportEntryStorageAblation(size_t num_rects) {
  Rng rng(20260808);
  std::vector<Rect> rects;
  rects.reserve(num_rects);
  for (size_t i = 0; i < num_rects; ++i) {
    const double x = rng.NextDoubleInRange(0.0, 1.0);
    const double y = rng.NextDoubleInRange(0.0, 1.0);
    rects.emplace_back(x, y, x + rng.NextDoubleInRange(0.0, 0.01),
                       y + rng.NextDoubleInRange(0.0, 0.01));
  }

  std::printf(
      "\nentry storage ablation (%s rects, insertion-built):\n"
      "%-12s %14s %14s %14s %14s\n",
      FormatWithCommas(static_cast<int64_t>(num_rects)).c_str(), "storage",
      "build allocs", "build bytes", "seal allocs", "seal bytes");
  for (const bool arena : {false, true}) {
    RTreeOptions options;
    options.arena_entry_storage = arena;
    // std::optional rather than make_unique: GCC's mismatched-new-delete
    // heuristic cannot see that the replaced operator new above is
    // malloc-based and rejects the inlined unique_ptr deleter.
    std::optional<RStarTree> tree;
    const AllocStats build = CountAllocs([&] {
      tree.emplace(1, options);
      for (size_t i = 0; i < rects.size(); ++i) {
        tree->Insert(rects[i], i);
      }
    });
    const AllocStats seal = CountAllocs([&] { tree->Seal(); });
    std::printf("%-12s %14s %14s %14s %14s\n",
                arena ? "arena" : "per-node",
                FormatWithCommas(static_cast<int64_t>(build.calls)).c_str(),
                FormatWithCommas(static_cast<int64_t>(build.bytes)).c_str(),
                FormatWithCommas(static_cast<int64_t>(seal.calls)).c_str(),
                FormatWithCommas(static_cast<int64_t>(seal.bytes)).c_str());
  }
}

void RunJoin(const char* label, const PaperWorkload& workload) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.reassignment = ReassignmentLevel::kAllLevels;
  config.num_processors = 8;
  config.num_disks = 8;
  config.total_buffer_pages = 800;
  auto result = workload.RunJoin(config);
  if (!result.ok()) {
    std::printf("%-12s ERROR %s\n", label,
                result.status().ToString().c_str());
    return;
  }
  const JoinStats& stats = result->stats;
  std::printf("%-12s %12s %14s %12s %12s\n", label,
              FormatMicrosAsSeconds(stats.response_time).c_str(),
              FormatWithCommas(stats.total_disk_accesses).c_str(),
              FormatWithCommas(stats.total_candidates).c_str(),
              FormatWithCommas(stats.num_tasks).c_str());
}

}  // namespace
}  // namespace psj

int main() {
  using namespace psj;
  bench::PrintHeader(
      "Ablation: insertion-built R*-trees vs. STR bulk loading "
      "(gd, n = d = 8, buffer 800)",
      "identical candidate counts; STR trees pack tighter (fewer pages), "
      "trading a different page-access pattern");

  const PaperWorkload& insertion = bench::GetWorkload();
  std::printf("insertion-built trees:\n%s\n",
              insertion.DescribeTrees().c_str());

  PaperWorkloadSpec str_spec;
  const double scale = bench::BenchScale();
  if (scale != 1.0) {
    str_spec = str_spec.Scaled(scale);
  }
  str_spec.build = TreeBuildMethod::kStr;
  const PaperWorkload str_workload(str_spec);
  std::printf("STR bulk-loaded trees:\n%s\n",
              str_workload.DescribeTrees().c_str());

  std::printf("%-12s %12s %14s %12s %12s\n", "build", "resp (s)",
              "disk accesses", "candidates", "tasks");
  RunJoin("insertion", insertion);
  RunJoin("str", str_workload);

  ReportEntryStorageAblation(
      static_cast<size_t>(20000 * bench::BenchScale()));
  return 0;
}
