// Google-benchmark microbenchmarks of the core components: plane-sweep vs.
// nested-loop node matching, R*-tree insertion and window queries, the LRU
// buffer, and the discrete-event scheduler handoff.
#include <benchmark/benchmark.h>

#include <vector>

#include "buffer/lru_buffer.h"
#include "geo/plane_sweep.h"
#include "geo/polyline.h"
#include "geo/rect_batch.h"
#include "geo/space_filling.h"
#include "join/node_match.h"
#include "join/second_filter.h"
#include "rtree/rstar_tree.h"
#include "sim/simulation.h"
#include "util/rng.h"

namespace psj {
namespace {

std::vector<Rect> RandomRects(uint64_t seed, int count, double extent) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    const double x = rng.NextDoubleInRange(0.0, 1.0);
    const double y = rng.NextDoubleInRange(0.0, 1.0);
    rects.emplace_back(x, y, x + extent, y + extent);
  }
  return rects;
}

// Load, sort and sweep, as the partition join does per tile.
void BM_BatchSweepJoin(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const auto r = RandomRects(1, count, 0.05);
  const auto s = RandomRects(2, count, 0.05);
  SweepScratch scratch;
  int64_t pairs = 0;
  for (auto _ : state) {
    scratch.raw_r.Assign(r);
    scratch.raw_s.Assign(s);
    BatchSweepJoin(scratch, [&](size_t, size_t) { ++pairs; });
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_BatchSweepJoin)->Arg(26)->Arg(102)->Arg(1024);

void BM_NestedLoopJoin(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  const auto r = RandomRects(1, count, 0.05);
  const auto s = RandomRects(2, count, 0.05);
  int64_t pairs = 0;
  for (auto _ : state) {
    BruteForceJoin(std::span<const Rect>(r), std::span<const Rect>(s),
                   [&](size_t, size_t) { ++pairs; });
  }
  benchmark::DoNotOptimize(pairs);
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_NestedLoopJoin)->Arg(26)->Arg(102)->Arg(1024);

void BM_NodeMatch(benchmark::State& state) {
  // Two full directory nodes on pages 1 and 2 (page 0 is the metadata
  // page), sealed into one SoA cache as RStarTree::Seal() builds it.
  std::vector<RTreeNode> nodes(3);
  nodes[1].level = nodes[2].level = 1;
  for (int i = 0; i < 102; ++i) {
    const auto ra = RandomRects(10 + static_cast<uint64_t>(i), 1, 0.05)[0];
    const auto rb = RandomRects(20 + static_cast<uint64_t>(i), 1, 0.05)[0];
    nodes[1].entries.push_back(RTreeEntry{ra, static_cast<uint64_t>(i)});
    nodes[2].entries.push_back(RTreeEntry{rb, static_cast<uint64_t>(i)});
  }
  NodeSoACache cache;
  cache.Build(nodes, {true, false, false});
  for (auto _ : state) {
    auto result = MatchNodeEntriesSoA(cache.view(1), cache.view(2));
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_NodeMatch);

void BM_RStarInsert(benchmark::State& state) {
  const auto rects = RandomRects(4, 10'000, 0.002);
  for (auto _ : state) {
    RStarTree tree(1);
    for (size_t i = 0; i < rects.size(); ++i) {
      tree.Insert(rects[i], i);
    }
    benchmark::DoNotOptimize(tree.height());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rects.size()));
}
BENCHMARK(BM_RStarInsert)->Unit(benchmark::kMillisecond);

void BM_RStarWindowQuery(benchmark::State& state) {
  const auto rects = RandomRects(5, 50'000, 0.002);
  RStarTree tree(1);
  for (size_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  tree.Seal();
  Rng rng(6);
  for (auto _ : state) {
    const double x = rng.NextDoubleInRange(0.0, 0.9);
    const double y = rng.NextDoubleInRange(0.0, 0.9);
    auto hits = tree.WindowQuery(Rect(x, y, x + 0.05, y + 0.05));
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RStarWindowQuery);

void BM_LruBufferAccess(benchmark::State& state) {
  LruBuffer buffer(1'000);
  Rng rng(7);
  for (auto _ : state) {
    const PageId page{0, static_cast<uint32_t>(rng.NextBelow(4'000))};
    if (!buffer.Touch(page)) {
      buffer.InsertAndMaybeEvict(page);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LruBufferAccess);

void BM_SchedulerHandoff(benchmark::State& state) {
  // Measures one full yield-reschedule round trip between two processes.
  const int64_t yields = 10'000;
  for (auto _ : state) {
    sim::Scheduler sched;
    for (int p = 0; p < 2; ++p) {
      sched.Spawn([&](sim::Process& proc) {
        for (int64_t i = 0; i < yields; ++i) {
          proc.WaitUntil(proc.now() + 1);
        }
      });
    }
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations() * yields * 2);
}
BENCHMARK(BM_SchedulerHandoff)->Unit(benchmark::kMillisecond);

void BM_HilbertIndex(benchmark::State& state) {
  const HilbertCurve curve(12);
  Rng rng(9);
  std::vector<Point> points;
  for (int i = 0; i < 1'024; ++i) {
    points.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  const Rect world(0, 0, 1, 1);
  size_t i = 0;
  uint64_t sum = 0;
  for (auto _ : state) {
    sum += curve.PointIndex(points[i++ % points.size()], world);
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_HilbertIndex);

void BM_SecondFilterScreen(benchmark::State& state) {
  // Screening one candidate pair with 4x4 section MBRs.
  Rng rng(10);
  std::vector<Point> pts_a;
  std::vector<Point> pts_b;
  for (int i = 0; i < 9; ++i) {
    pts_a.push_back(Point{rng.NextDouble(), rng.NextDouble()});
    pts_b.push_back(Point{rng.NextDouble() + 0.9, rng.NextDouble()});
  }
  const auto sections_a = ComputeSectionMbrs(PolylineView(pts_a), 4);
  const auto sections_b = ComputeSectionMbrs(PolylineView(pts_b), 4);
  int64_t possible = 0;
  for (auto _ : state) {
    possible += SecondFilter::CanIntersect(sections_a, sections_b) ? 1 : 0;
  }
  benchmark::DoNotOptimize(possible);
}
BENCHMARK(BM_SecondFilterScreen);

void BM_KnnQuery(benchmark::State& state) {
  const auto rects = RandomRects(11, 50'000, 0.002);
  RStarTree tree(1);
  for (size_t i = 0; i < rects.size(); ++i) {
    tree.Insert(rects[i], i);
  }
  tree.Seal();
  Rng rng(12);
  for (auto _ : state) {
    auto neighbors = tree.KnnQuery(
        Point{rng.NextDouble(), rng.NextDouble()}, 10);
    benchmark::DoNotOptimize(neighbors);
  }
}
BENCHMARK(BM_KnnQuery);

void BM_SegmentIntersect(benchmark::State& state) {
  Rng rng(8);
  std::vector<Point> points;
  for (int i = 0; i < 4'096; ++i) {
    points.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  size_t i = 0;
  int64_t hits = 0;
  for (auto _ : state) {
    const Point& a0 = points[i % points.size()];
    const Point& a1 = points[(i + 1) % points.size()];
    const Point& b0 = points[(i + 2) % points.size()];
    const Point& b1 = points[(i + 3) % points.size()];
    hits += SegmentsIntersect(a0, a1, b0, b1) ? 1 : 0;
    ++i;
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SegmentIntersect);

}  // namespace
}  // namespace psj

BENCHMARK_MAIN();
