// Microbenchmark of the SoA geometry kernels (geo/rect_batch.h,
// geo/node_scan.h) against their scalar reference implementations, for the
// filter-step hot loops: the clip filter (the runtime-dispatched intra-node
// scan, which the nested-loop ablation also runs), the plane-sweep forward
// scan, the xl sort, and the intra-node scan per ISA variant. Emits a human
// table on stdout and machine-readable JSON (BENCH_kernels.json, or argv[1])
// so the repo's perf trajectory is seeded with hard numbers.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "geo/node_scan.h"
#include "geo/plane_sweep.h"
#include "geo/rect_batch.h"
#include "util/json_writer.h"
#include "util/rng.h"

namespace psj::bench {
namespace {

// --smoke: fast CI sanity run (short calibration, few samples) that checks
// the harness end to end; the numbers are not publication-grade.
bool g_smoke = false;

// Every timed call processes the next of Variants(n) independent datasets,
// so the branch predictor cannot memorize one input's branch sequence across
// repetitions — the production filter step sees each node pair exactly once,
// and a single repeated input lets the scalar code look unrealistically
// good. Smaller inputs have shorter branch sequences, so they need more
// variants to stay outside the predictor's reach.
size_t Variants(size_t n) { return std::max<size_t>(16, 4096 / n); }

// Node-entry-like rect sets: extent scaled so each rectangle overlaps a
// handful of others regardless of n, as in a well-packed R*-tree node.
std::vector<Rect> MakeRects(Rng& rng, size_t n) {
  const double extent = 1.5 / std::sqrt(static_cast<double>(n) + 1.0);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double x = rng.NextDoubleInRange(0.0, 1.0);
    const double y = rng.NextDoubleInRange(0.0, 1.0);
    rects.emplace_back(x, y, x + rng.NextDoubleInRange(0.0, extent),
                       y + rng.NextDoubleInRange(0.0, extent));
  }
  return rects;
}

std::vector<Rect> SortByXl(std::vector<Rect> rects) {
  std::sort(rects.begin(), rects.end(),
            [](const Rect& a, const Rect& b) { return a.xl < b.xl; });
  return rects;
}

using BenchClock = std::chrono::steady_clock;

template <typename Fn>
double SampleNs(Fn&& fn, size_t reps) {
  const auto start = BenchClock::now();
  for (size_t k = 0; k < reps; ++k) fn();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 BenchClock::now() - start)
                 .count()) /
         static_cast<double>(reps);
}

// Repetition count such that one sample takes >= ~2 ms (~50 us in smoke
// mode).
template <typename Fn>
size_t CalibrateReps(Fn&& fn) {
  const double target_ns = g_smoke ? 5e4 : 2e6;
  size_t reps = 1;
  while (SampleNs(fn, reps) * static_cast<double>(reps) < target_ns &&
         reps <= (1u << 24)) {
    reps *= 4;
  }
  return reps;
}

// Best-of-samples wall time of two competing implementations, in ns per
// call. The samples are interleaved (a, b, a, b, ...) so that a background
// load burst on a shared machine inflates both sides instead of silently
// skewing their ratio.
template <typename FnA, typename FnB>
std::pair<double, double> TimeBothNs(FnA&& a, FnB&& b) {
  const size_t reps_a = CalibrateReps(a);
  const size_t reps_b = CalibrateReps(b);
  double best_a = 1e300;
  double best_b = 1e300;
  const int samples = g_smoke ? 3 : 9;
  for (int sample = 0; sample < samples; ++sample) {
    best_a = std::min(best_a, SampleNs(a, reps_a));
    best_b = std::min(best_b, SampleNs(b, reps_b));
  }
  return {best_a, best_b};
}

// Defeats dead-code elimination of the benchmarked loops.
volatile uint64_t g_sink = 0;

struct Row {
  const char* kernel;
  size_t n;
  double scalar_ns_per_rect;
  double batch_ns_per_rect;
  double hit_rate = -1.0;  // >= 0 only for the intra-node scan rows.
  double speedup() const { return scalar_ns_per_rect / batch_ns_per_rect; }
};

Row BenchClipFilter(Rng& rng, size_t n) {
  const Rect clip(0.2, 0.2, 0.8, 0.8);
  const size_t variants = Variants(n);
  std::vector<std::vector<Rect>> rects(variants);
  std::vector<RectBatch> batches(variants);
  for (size_t v = 0; v < variants; ++v) {
    rects[v] = MakeRects(rng, n);
    batches[v].Assign(rects[v]);
  }
  std::vector<uint32_t> ids;
  size_t v = 0;
  const auto [scalar_ns, batch_ns] = TimeBothNs(
      [&] {
        const std::vector<Rect>& set = rects[v];
        v = (v + 1) % variants;
        ids.clear();
        for (uint32_t i = 0; i < set.size(); ++i) {
          if (set[i].Intersects(clip)) ids.push_back(i);
        }
        g_sink = g_sink + ids.size();
      },
      [&] {
        ScanIntersecting(batches[v].view(), clip, &ids);
        v = (v + 1) % variants;
        g_sink = g_sink + ids.size();
      });
  const double dn = static_cast<double>(n);
  return Row{"clip_filter", n, scalar_ns / dn, batch_ns / dn};
}

Row BenchSweepScan(Rng& rng, size_t n) {
  const size_t variants = Variants(n);
  std::vector<std::vector<Rect>> r(variants);
  std::vector<std::vector<Rect>> s(variants);
  std::vector<RectBatch> batch_r(variants);
  std::vector<RectBatch> batch_s(variants);
  for (size_t v = 0; v < variants; ++v) {
    r[v] = SortByXl(MakeRects(rng, n));
    s[v] = SortByXl(MakeRects(rng, n));
    batch_r[v].Assign(r[v]);
    batch_s[v].Assign(s[v]);
  }
  std::vector<std::pair<uint32_t, uint32_t>> pair_scratch;
  size_t v = 0;
  const auto [scalar_ns, batch_ns] = TimeBothNs(
      [&] {
        size_t pairs = 0;
        PlaneSweepJoinSortedScalar(std::span<const Rect>(r[v]),
                                   std::span<const Rect>(s[v]),
                                   [&](size_t, size_t) { ++pairs; });
        v = (v + 1) % variants;
        g_sink = g_sink + pairs;
      },
      [&] {
        SweepCollectPairs(batch_r[v].view(), batch_s[v].view(),
                          &pair_scratch);
        v = (v + 1) % variants;
        g_sink = g_sink + pair_scratch.size();
      });
  const double dn = static_cast<double>(2 * n);
  return Row{"sweep_scan", n, scalar_ns / dn, batch_ns / dn};
}

Row BenchSortByXl(Rng& rng, size_t n) {
  const size_t variants = Variants(n);
  std::vector<std::vector<Rect>> rects(variants);
  std::vector<RectBatch> batches(variants);
  for (size_t v = 0; v < variants; ++v) {
    rects[v] = MakeRects(rng, n);
    batches[v].Assign(rects[v]);
  }
  std::vector<uint32_t> order;
  std::vector<std::pair<uint64_t, uint32_t>> keys;
  size_t v = 0;
  const auto [scalar_ns, batch_ns] = TimeBothNs(
      [&] {
        g_sink =
            g_sink + SortedOrderByXl(std::span<const Rect>(rects[v])).size();
        v = (v + 1) % variants;
      },
      [&] {
        SortedOrderByXl(batches[v].view(), &order, &keys);
        v = (v + 1) % variants;
        g_sink = g_sink + order.size();
      });
  const double dn = static_cast<double>(n);
  return Row{"sort_by_xl", n, scalar_ns / dn, batch_ns / dn};
}

// Intra-node scan (the tree-descent inner loop): a query window against one
// node's sentinel-padded coordinate planes. Each runtime-dispatched variant
// is timed against the same scalar reference; window_side steers the hit
// rate (a well-packed node sees both selective windows during descent and
// near-full overlap at the clip-rect root pairs).
void BenchNodeScan(Rng& rng, size_t n, double window_side,
                   std::vector<Row>* rows) {
  const size_t variants = Variants(n);
  std::vector<RectBatch> batches(variants);
  std::vector<Rect> queries(variants);
  for (size_t v = 0; v < variants; ++v) {
    batches[v].Assign(MakeRects(rng, n));
    const double x = rng.NextDoubleInRange(0.0, 1.0 - window_side);
    const double y = rng.NextDoubleInRange(0.0, 1.0 - window_side);
    queries[v] = Rect(x, y, x + window_side, y + window_side);
  }
  std::vector<uint32_t> hits;
  double hit_sum = 0.0;
  for (size_t v = 0; v < variants; ++v) {
    ScanIntersectingScalar(batches[v].view(), queries[v], &hits);
    hit_sum += static_cast<double>(hits.size());
  }
  const double hit_rate =
      hit_sum / static_cast<double>(variants * std::max<size_t>(n, 1));

  size_t v = 0;
  const auto run = [&](auto* fn) {
    return [&, fn] {
      fn(batches[v].view(), queries[v], &hits);
      v = (v + 1) % variants;
      g_sink = g_sink + hits.size();
    };
  };
  const double dn = static_cast<double>(n);
  if (NodeScanHasSse2()) {
    const auto [scalar_ns, simd_ns] =
        TimeBothNs(run(&ScanIntersectingScalar), run(&ScanIntersectingSse2));
    rows->push_back(
        Row{"node_scan_sse2", n, scalar_ns / dn, simd_ns / dn, hit_rate});
  }
  if (NodeScanHasAvx2()) {
    const auto [scalar_ns, simd_ns] =
        TimeBothNs(run(&ScanIntersectingScalar), run(&ScanIntersectingAvx2));
    rows->push_back(
        Row{"node_scan_avx2", n, scalar_ns / dn, simd_ns / dn, hit_rate});
  }
}

int Main(int argc, char** argv) {
  std::string path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      g_smoke = true;
    } else {
      path = argv[i];
    }
  }

  PrintHeader("micro_kernels — scalar vs SoA filter-step kernels",
              "clip filter (the runtime-dispatched scan) >= 2x for nodes "
              ">= 64 entries; SSE2 sweep scan ~1x at node sizes (n <= 102) "
              "and >= 1.2x from n = 256; node scan >= 1.5x at directory "
              "fan-out (n=102)");
  Rng rng(20260805);
  std::vector<Row> rows;
  for (const size_t n : {26u, 64u, 102u, 256u, 1024u}) {
    rows.push_back(BenchClipFilter(rng, n));
    rows.push_back(BenchSweepScan(rng, n));
    rows.push_back(BenchSortByXl(rng, n));
  }
  // Intra-node scan at the paper's two fan-outs (data node 26, directory
  // node 102), with a selective and a near-everything query window each.
  for (const size_t n : {26u, 102u}) {
    for (const double window_side : {0.25, 0.9}) {
      BenchNodeScan(rng, n, window_side, &rows);
    }
  }

  std::printf("%-14s %6s %16s %16s %9s %8s\n", "kernel", "n",
              "scalar ns/rect", "simd ns/rect", "speedup", "hit");
  for (const Row& row : rows) {
    std::printf("%-14s %6zu %16.2f %16.2f %8.2fx", row.kernel, row.n,
                row.scalar_ns_per_rect, row.batch_ns_per_rect, row.speedup());
    if (row.hit_rate >= 0.0) {
      std::printf(" %7.0f%%", row.hit_rate * 100.0);
    }
    std::printf("\n");
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("micro_kernels");
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("simd");
  json.String(RectBatchSimdLevel());
  json.Key("scan_isa");
  json.String(NodeScanIsa());
  json.Key("units");
  json.String("ns_per_rect");
  json.Key("results");
  json.BeginArray();
  for (const Row& row : rows) {
    json.BeginObject();
    json.Key("kernel");
    json.String(row.kernel);
    json.Key("n");
    json.Int(static_cast<int64_t>(row.n));
    json.Key("scalar_ns_per_rect");
    json.Double(row.scalar_ns_per_rect);
    json.Key("batch_ns_per_rect");
    json.Double(row.batch_ns_per_rect);
    json.Key("speedup");
    json.Double(row.speedup());
    if (row.hit_rate >= 0.0) {
      json.Key("hit_rate");
      json.Double(row.hit_rate);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace psj::bench

int main(int argc, char** argv) { return psj::bench::Main(argc, argv); }
