#include "serve/load_gen.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "join/sequential_join.h"
#include "serve/batch_descent.h"
#include "util/check.h"
#include "util/mutex.h"

namespace psj::serve {
namespace {

/// The query mix. Fractions of knn / join-region / point probes; the
/// remainder are window queries. Window and point probes alternate between
/// the two trees.
constexpr double kKnnFraction = 0.02;
constexpr double kJoinFraction = 0.002;
constexpr double kPointFraction = 0.30;

/// Fraction of single-tree queries whose center falls in a small hot region
/// of the map (skewed real-world interest: most traffic looks at the same
/// downtown). Hotspot traffic overlaps, which is what batched descents
/// amortize.
constexpr double kHotspotFraction = 0.6;
/// Query window side length as a fraction of the map extent.
constexpr double kWindowExtent = 0.01;
/// Hot region side length as a fraction of the map extent.
constexpr double kHotspotExtent = 0.08;

/// Deterministic descriptor stream implementing the query mix over the
/// tree's domain, with a hot region concentrating kHotspotFraction of the
/// traffic.
class QueryStream {
 public:
  QueryStream(const Rect& domain, const LoadGenOptions& options)
      : rng_(options.seed),
        deadline_micros_(options.deadline_micros),
        domain_(domain) {
    const double ex = domain_.xu - domain_.xl;
    const double ey = domain_.yu - domain_.yl;
    side_x_ = ex * kWindowExtent;
    side_y_ = ey * kWindowExtent;
    // A fixed "downtown": offset from the corner so hotspot queries overlap
    // each other heavily but still see ordinary data density.
    const double hx = domain_.xl + 0.37 * ex;
    const double hy = domain_.yl + 0.41 * ey;
    hot_ = Rect(hx, hy, hx + ex * kHotspotExtent, hy + ey * kHotspotExtent);
  }

  QueryDescriptor Next() {
    const double u = Uniform();
    QueryDescriptor d;
    if (u < kKnnFraction) {
      d = QueryDescriptor::Knn(Center(), 1 + static_cast<uint32_t>(rng_() % 16),
                               Target());
    } else if (u < kKnnFraction + kJoinFraction) {
      const Point c = Center();
      d = QueryDescriptor::JoinRegion(Rect(c.x - side_x_, c.y - side_y_,
                                           c.x + side_x_, c.y + side_y_));
    } else if (u < kKnnFraction + kJoinFraction + kPointFraction) {
      d = QueryDescriptor::PointProbe(Center(), Target());
    } else {
      const Point c = Center();
      d = QueryDescriptor::Window(Rect(c.x - side_x_ / 2, c.y - side_y_ / 2,
                                       c.x + side_x_ / 2, c.y + side_y_ / 2),
                                  Target());
    }
    d.deadline_micros = deadline_micros_;
    return d;
  }

 private:
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  }

  Point Center() {
    const Rect& from = Uniform() < kHotspotFraction ? hot_ : domain_;
    return Point{from.xl + Uniform() * (from.xu - from.xl),
                 from.yl + Uniform() * (from.yu - from.yl)};
  }

  TreeTarget Target() {
    return (rng_() & 1) == 0 ? TreeTarget::kTreeR : TreeTarget::kTreeS;
  }

  std::mt19937_64 rng_;
  const int64_t deadline_micros_;
  const Rect domain_;
  Rect hot_ = Rect::Empty();
  double side_x_ = 0.0;
  double side_y_ = 0.0;
};

/// Data-entry MBRs indexed by object id, read off the sealed tree's leaves
/// (ids are dense), for the join-region oracle's region filter.
std::vector<Rect> CollectDataRects(const RStarTree& tree) {
  const NodeSoACache& cache = tree.sealed();
  std::vector<Rect> rects(static_cast<size_t>(tree.num_data_entries()),
                          Rect::Empty());
  for (uint32_t page = 1; page < tree.num_pages(); ++page) {
    if (tree.IsFreePage(page)) {
      continue;
    }
    const NodeSoAView node = cache.view(page);
    if (!node.is_leaf()) {
      continue;
    }
    for (size_t i = 0; i < node.size(); ++i) {
      rects[static_cast<size_t>(node.ids[i])] = node.rects.rect(i);
    }
  }
  return rects;
}

struct Sample {
  QueryDescriptor descriptor;
  QueryResult result;
};

bool SortedEqual(std::vector<uint64_t> a, std::vector<uint64_t> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// Set-equality of one sampled result against the single-query oracle.
/// `join_candidates` is the sequential join's candidate set (computed once,
/// lazily, by the caller).
bool SampleMatchesOracle(
    const RStarTree& tree_r, const RStarTree& tree_s, const Sample& sample,
    const std::vector<std::pair<uint64_t, uint64_t>>& join_candidates,
    const std::vector<Rect>& rects_r, const std::vector<Rect>& rects_s) {
  const QueryDescriptor& d = sample.descriptor;
  const RStarTree& tree =
      d.target == TreeTarget::kTreeR ? tree_r : tree_s;
  switch (d.type) {
    case QueryType::kWindow:
    case QueryType::kPoint:
      return SortedEqual(sample.result.ids, tree.WindowQuery(d.rect));
    case QueryType::kKnn: {
      const auto oracle = tree.KnnQuery(d.point, d.k);
      if (oracle.size() != sample.result.neighbors.size()) {
        return false;
      }
      for (size_t i = 0; i < oracle.size(); ++i) {
        if (oracle[i].object_id != sample.result.neighbors[i].object_id ||
            oracle[i].distance != sample.result.neighbors[i].distance) {
          return false;
        }
      }
      return true;
    }
    case QueryType::kJoinRegion: {
      std::vector<std::pair<uint64_t, uint64_t>> oracle;
      for (const auto& [r, s] : join_candidates) {
        if (TripleIntersects(rects_r[static_cast<size_t>(r)],
                             rects_s[static_cast<size_t>(s)], d.rect)) {
          oracle.push_back({r, s});
        }
      }
      std::vector<std::pair<uint64_t, uint64_t>> got = sample.result.pairs;
      std::sort(got.begin(), got.end());
      std::sort(oracle.begin(), oracle.end());
      return got == oracle;
    }
  }
  return false;
}

}  // namespace

int64_t ExactPercentile(const std::vector<int64_t>& sorted, double q) {
  if (sorted.empty()) {
    return 0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(sorted.size() - 1);
  return sorted[static_cast<size_t>(pos)];
}

LoadGenResult RunOpenLoopLoad(const RStarTree& tree_r, const RStarTree& tree_s,
                              const LoadGenOptions& options) {
  PSJ_CHECK_GT(options.offered_qps, 0.0);
  PSJ_CHECK_GT(options.duration_micros, 0);

  ServiceConfig config;
  config.num_threads = options.num_threads;
  config.queue_capacity = options.queue_capacity;
  config.batching = options.batching;
  config.batch_window_micros = options.batch_window_micros;
  config.max_batch = options.max_batch;
  config.metrics = options.metrics;
  config.trace = options.trace;
  config.trace_sample_every = options.trace_sample_every;
  SpatialQueryService service(&tree_r, &tree_s, config);

  QueryStream stream(tree_r.root_mbr().UnionWith(tree_s.root_mbr()), options);

  // Guards latencies/samples, written from concurrent worker callbacks.
  // Local state, so PSJ_GUARDED_BY cannot attach; the util::Mutex still
  // keeps the locking idiom uniform across the serve layer.
  util::Mutex mu;
  std::vector<int64_t> latencies;
  latencies.reserve(static_cast<size_t>(
      options.offered_qps * 1e-6 * static_cast<double>(options.duration_micros) +
      64));
  std::vector<Sample> samples;

  service.Start();
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_us = [&start] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  const double interval_us = 1e6 / options.offered_qps;
  int64_t scheduled = 0;
  int64_t accepted = 0;
  for (;;) {
    const int64_t now_us = elapsed_us();
    if (now_us >= options.duration_micros) {
      break;
    }
    const auto next_us =
        static_cast<int64_t>(static_cast<double>(scheduled) * interval_us);
    if (next_us > now_us) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(std::min<int64_t>(next_us - now_us, 500)));
      continue;
    }
    ++scheduled;
    const QueryDescriptor descriptor = stream.Next();
    const bool sampled =
        options.verify_every > 0 && accepted % options.verify_every == 0;
    Submission submission = service.Submit(
        descriptor, [&mu, &latencies, &samples, descriptor,
                     sampled](QueryResult result) {
          util::MutexLock lock(&mu);
          latencies.push_back(result.latency_micros);
          if (sampled) {
            samples.push_back(Sample{descriptor, std::move(result)});
          }
        });
    if (submission.accepted) {
      ++accepted;
    }
  }
  service.Stop();
  const double elapsed_s = static_cast<double>(elapsed_us()) * 1e-6;

  LoadGenResult result;
  result.stats = service.Stats();
  result.offered_qps = options.offered_qps;
  result.elapsed_seconds = elapsed_s;
  result.sustained_qps =
      elapsed_s > 0.0
          ? static_cast<double>(result.stats.completed_ok) / elapsed_s
          : 0.0;

  std::sort(latencies.begin(), latencies.end());
  result.p50_latency_us = ExactPercentile(latencies, 0.50);
  result.p95_latency_us = ExactPercentile(latencies, 0.95);
  result.p99_latency_us = ExactPercentile(latencies, 0.99);

  if (!samples.empty()) {
    const bool any_join =
        std::any_of(samples.begin(), samples.end(), [](const Sample& s) {
          return s.descriptor.type == QueryType::kJoinRegion;
        });
    std::vector<std::pair<uint64_t, uint64_t>> join_candidates;
    std::vector<Rect> rects_r;
    std::vector<Rect> rects_s;
    if (any_join) {
      join_candidates = SequentialRTreeJoin(tree_r, tree_s).candidates;
      rects_r = CollectDataRects(tree_r);
      rects_s = CollectDataRects(tree_s);
    }
    for (const Sample& sample : samples) {
      if (!sample.result.complete) {
        continue;  // Partial by deadline; no set-equality contract.
      }
      ++result.verified_queries;
      if (!SampleMatchesOracle(tree_r, tree_s, sample, join_candidates,
                               rects_r, rects_s)) {
        ++result.verify_failures;
      }
    }
  }
  return result;
}

}  // namespace psj::serve
