// Serving-layer tests: the batched descent is set-equal to the
// single-query oracle (WindowQuery / KnnQuery / sequential join) for every
// query type — including empty-result and duplicate-heavy batches — and the
// service keeps its admission contract: bounded queue with reject-with-
// reason backpressure, per-query deadlines at node-visit granularity
// (zero-deadline queries expire at the first check), and exactly one
// callback per accepted query, including during shutdown drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "data/generator.h"
#include "data/map_builder.h"
#include "join/sequential_join.h"
#include "serve/batch_descent.h"
#include "serve/load_gen.h"
#include "serve/query.h"
#include "serve/service.h"

namespace psj {
namespace {

using serve::BatchWindowOutput;
using serve::BatchWindowQueries;
using serve::LoadGenOptions;
using serve::QueryDescriptor;
using serve::QueryResult;
using serve::QueryStatus;
using serve::QueryType;
using serve::RegionJoinOutput;
using serve::RegionJoinQuery;
using serve::RejectReason;
using serve::RunOpenLoopLoad;
using serve::ServiceConfig;
using serve::SpatialQueryService;
using serve::Submission;
using serve::TreeTarget;
using serve::TripleIntersects;
using Pair = std::pair<uint64_t, uint64_t>;

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::set<Pair> AsSet(const std::vector<Pair>& pairs) {
  return std::set<Pair>(pairs.begin(), pairs.end());
}

struct ServeFixture {
  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;

  ServeFixture(int count_r, int count_s, uint64_t seed)
      : store_r(GenerateUniformSegments(seed, count_r, 0.01)),
        store_s(GenerateUniformSegments(seed + 1, count_s, 0.02)),
        tree_r(BuildTreeFromObjects(1, store_r.objects())),
        tree_s(BuildTreeFromObjects(2, store_s.objects())) {}

  // A spread of query windows: hotspot-overlapping, scattered, duplicated,
  // degenerate (point-like), and guaranteed-empty (outside the domain).
  std::vector<Rect> MixedWindows() const {
    std::vector<Rect> windows;
    for (int i = 0; i < 12; ++i) {
      const double base = 0.3 + 0.01 * i;
      windows.push_back(Rect(base, base, base + 0.08, base + 0.08));
    }
    for (int i = 0; i < 8; ++i) {
      const double base = 0.1 * i;
      windows.push_back(Rect(base, 0.9 - base, base + 0.02, 0.92 - base));
    }
    for (int i = 0; i < 6; ++i) {  // Duplicates of one hot window.
      windows.push_back(Rect(0.4, 0.4, 0.5, 0.5));
    }
    windows.push_back(Rect(0.55, 0.55, 0.55, 0.55));  // Degenerate point.
    windows.push_back(Rect(5.0, 5.0, 6.0, 6.0));      // Empty: off-domain.
    windows.push_back(tree_r.root_mbr());             // Everything.
    return windows;
  }
};

// ---- Batched descent vs the single-query oracle (satellite 1) ----

TEST(BatchDescentTest, WindowBatchMatchesWindowQuery) {
  const ServeFixture fixture(900, 800, 21);
  const std::vector<Rect> windows = fixture.MixedWindows();
  BatchWindowOutput out;
  serve::DescentStats stats;
  BatchWindowQueries(fixture.tree_r, windows, {}, nullptr, &out, &stats);
  ASSERT_EQ(out.ids.size(), windows.size());
  for (size_t q = 0; q < windows.size(); ++q) {
    EXPECT_TRUE(out.complete[q]);
    const auto oracle = Sorted(fixture.tree_r.WindowQuery(windows[q]));
    const auto got = Sorted(out.ids[q]);
    EXPECT_EQ(got, oracle) << "query " << q;
    EXPECT_EQ(std::set<uint64_t>(got.begin(), got.end()).size(), got.size())
        << "duplicate ids for query " << q;
  }
  EXPECT_GT(stats.nodes_visited, 0);
  // The shared traversal visits upper nodes once per batch, not once per
  // query: strictly fewer scans than single-query descents would make.
  EXPECT_LT(stats.node_scans,
            static_cast<int64_t>(windows.size()) * stats.nodes_visited);
}

TEST(BatchDescentTest, BatchOfOneMatchesWindowQuery) {
  const ServeFixture fixture(600, 500, 22);
  const Rect window(0.25, 0.25, 0.45, 0.45);
  BatchWindowOutput out;
  BatchWindowQueries(fixture.tree_r, {&window, 1}, {}, nullptr, &out);
  ASSERT_EQ(out.ids.size(), 1u);
  EXPECT_EQ(Sorted(out.ids[0]), Sorted(fixture.tree_r.WindowQuery(window)));
}

TEST(BatchDescentTest, DuplicateHeavyBatchGivesIdenticalAnswers) {
  const ServeFixture fixture(700, 600, 23);
  const Rect hot(0.4, 0.4, 0.55, 0.55);
  std::vector<Rect> windows(64, hot);
  BatchWindowOutput out;
  BatchWindowQueries(fixture.tree_r, windows, {}, nullptr, &out);
  const auto oracle = Sorted(fixture.tree_r.WindowQuery(hot));
  ASSERT_FALSE(oracle.empty());
  for (size_t q = 0; q < windows.size(); ++q) {
    EXPECT_EQ(Sorted(out.ids[q]), oracle) << "duplicate query " << q;
  }
}

TEST(BatchDescentTest, EmptyBatchAndEmptyResults) {
  const ServeFixture fixture(300, 300, 24);
  BatchWindowOutput out;
  BatchWindowQueries(fixture.tree_r, {}, {}, nullptr, &out);
  EXPECT_TRUE(out.ids.empty());

  std::vector<Rect> windows(16, Rect(7.0, 7.0, 7.5, 7.5));  // All empty.
  BatchWindowQueries(fixture.tree_r, windows, {}, nullptr, &out);
  for (size_t q = 0; q < windows.size(); ++q) {
    EXPECT_TRUE(out.complete[q]);
    EXPECT_TRUE(out.ids[q].empty());
  }
}

// The region-join oracle: the sequential join's candidate pairs whose MBRs
// share a point with the region.
std::set<Pair> RegionOracle(const ServeFixture& fixture, const Rect& region) {
  const auto all =
      SequentialRTreeJoin(fixture.tree_r, fixture.tree_s).candidates;
  std::set<Pair> expected;
  for (const auto& [r, s] : all) {
    if (TripleIntersects(fixture.store_r.Get(r).Mbr(),
                         fixture.store_s.Get(s).Mbr(), region)) {
      expected.insert({r, s});
    }
  }
  return expected;
}

TEST(BatchDescentTest, RegionJoinMatchesSequentialJoinFilter) {
  const ServeFixture fixture(800, 700, 25);
  for (const Rect& region :
       {Rect(0.3, 0.3, 0.5, 0.5), Rect(0.0, 0.0, 1.0, 1.0),
        Rect(0.42, 0.58, 0.43, 0.59), Rect(6.0, 6.0, 7.0, 7.0)}) {
    RegionJoinOutput out;
    RegionJoinQuery(fixture.tree_r, fixture.tree_s, region, -1, nullptr,
                    &out);
    EXPECT_TRUE(out.complete);
    EXPECT_EQ(out.pairs.size(), AsSet(out.pairs).size())
        << "duplicate pairs";
    EXPECT_EQ(AsSet(out.pairs), RegionOracle(fixture, region));
  }
}

TEST(BatchDescentTest, RegionJoinHandlesHeightMismatch) {
  const ServeFixture big(900, 40, 26);
  const ObjectStore tiny_store(GenerateUniformSegments(99, 10, 0.05));
  const RStarTree tiny = BuildTreeFromObjects(2, tiny_store.objects());
  ASSERT_NE(big.tree_r.height(), tiny.height());

  const Rect region(0.2, 0.2, 0.8, 0.8);
  RegionJoinOutput out;
  RegionJoinQuery(big.tree_r, tiny, region, -1, nullptr, &out);

  std::set<Pair> expected;
  for (const MapObject& r : big.store_r.objects()) {
    for (const MapObject& s : tiny_store.objects()) {
      if (TripleIntersects(r.Mbr(), s.Mbr(), region)) {
        expected.insert({r.id, s.id});
      }
    }
  }
  EXPECT_EQ(AsSet(out.pairs), expected);
}

// ---- Deadlines at node-visit granularity (satellite 4) ----

TEST(BatchDescentTest, DeadlineExpiryMidDescentYieldsPartialSubset) {
  const ServeFixture fixture(900, 800, 27);
  const std::vector<Rect> windows(8, fixture.tree_r.root_mbr());
  // A fake clock ticking one µs per node visit; deadlines stagger so some
  // queries expire after a few visits and some never do.
  int64_t now = 0;
  const auto clock = [&now] { return now++; };
  std::vector<int64_t> deadlines;
  for (size_t q = 0; q < windows.size(); ++q) {
    deadlines.push_back(q < 4 ? static_cast<int64_t>(q + 1) : -1);
  }
  BatchWindowOutput out;
  BatchWindowQueries(fixture.tree_r, windows, deadlines, clock, &out);
  for (size_t q = 0; q < windows.size(); ++q) {
    const auto oracle = Sorted(fixture.tree_r.WindowQuery(windows[q]));
    const auto got = Sorted(out.ids[q]);
    if (out.complete[q]) {
      EXPECT_EQ(got, oracle);
    } else {
      // Partial: a strict subset, never fabricated ids.
      EXPECT_LT(got.size(), oracle.size());
      EXPECT_TRUE(std::includes(oracle.begin(), oracle.end(), got.begin(),
                                got.end()));
    }
  }
  EXPECT_FALSE(out.complete[0]) << "1 µs deadline must expire mid-descent";
  EXPECT_TRUE(out.complete[7]);
}

TEST(BatchDescentTest, RegionJoinDeadlineExpiresImmediately) {
  const ServeFixture fixture(500, 500, 28);
  RegionJoinOutput out;
  RegionJoinQuery(fixture.tree_r, fixture.tree_s, Rect(0.0, 0.0, 1.0, 1.0),
                  /*deadline_micros=*/5, [] { return int64_t{100}; }, &out);
  EXPECT_FALSE(out.complete);
  EXPECT_TRUE(out.pairs.empty());
}

// ---- The service: admission, backpressure, lifecycle ----

ServiceConfig UnbatchedConfig() {
  ServiceConfig config;
  config.batching = false;
  return config;
}

TEST(ServiceTest, ExecuteMatchesSingleQueryOracles) {
  const ServeFixture fixture(800, 700, 31);
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s,
                              ServiceConfig());
  service.Start();

  const Rect window(0.3, 0.3, 0.5, 0.5);
  const QueryResult window_result =
      service.Execute(QueryDescriptor::Window(window, TreeTarget::kTreeS));
  EXPECT_EQ(window_result.status, QueryStatus::kOk);
  EXPECT_EQ(Sorted(window_result.ids),
            Sorted(fixture.tree_s.WindowQuery(window)));

  const Point probe{0.44, 0.41};
  const QueryResult point_result =
      service.Execute(QueryDescriptor::PointProbe(probe));
  EXPECT_EQ(Sorted(point_result.ids),
            Sorted(fixture.tree_r.WindowQuery(
                Rect(probe.x, probe.y, probe.x, probe.y))));

  const QueryResult knn_result =
      service.Execute(QueryDescriptor::Knn(probe, 7));
  const auto knn_oracle = fixture.tree_r.KnnQuery(probe, 7);
  ASSERT_EQ(knn_result.neighbors.size(), knn_oracle.size());
  for (size_t i = 0; i < knn_oracle.size(); ++i) {
    EXPECT_EQ(knn_result.neighbors[i].object_id, knn_oracle[i].object_id);
    EXPECT_EQ(knn_result.neighbors[i].distance, knn_oracle[i].distance);
  }

  const Rect region(0.35, 0.35, 0.6, 0.6);
  const QueryResult join_result =
      service.Execute(QueryDescriptor::JoinRegion(region));
  EXPECT_EQ(AsSet(join_result.pairs), RegionOracle(fixture, region));
}

TEST(ServiceTest, BatchedAndSingleModesAgree) {
  const ServeFixture fixture(700, 600, 32);
  const std::vector<Rect> windows = fixture.MixedWindows();

  auto run = [&](const ServiceConfig& config) {
    SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
    std::vector<QueryResult> results(windows.size());
    std::atomic<int> done{0};
    for (size_t q = 0; q < windows.size(); ++q) {
      // Submit before Start so one admission cycle sees the whole set.
      const Submission submission = service.Submit(
          QueryDescriptor::Window(windows[q]),
          [&results, &done, q](QueryResult result) {
            results[q] = std::move(result);
            done.fetch_add(1);
          });
      EXPECT_TRUE(submission.accepted);
    }
    service.Start();
    service.Stop();  // Drains: every callback has fired after Stop.
    EXPECT_EQ(done.load(), static_cast<int>(windows.size()));
    return results;
  };

  const auto batched = run(ServiceConfig());
  const auto single = run(UnbatchedConfig());
  for (size_t q = 0; q < windows.size(); ++q) {
    EXPECT_EQ(Sorted(batched[q].ids), Sorted(single[q].ids));
    EXPECT_EQ(Sorted(batched[q].ids),
              Sorted(fixture.tree_r.WindowQuery(windows[q])));
  }
}

TEST(ServiceTest, QueueFullRejectsWithReason) {
  const ServeFixture fixture(200, 200, 33);
  ServiceConfig config;
  config.queue_capacity = 2;
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
  // Not started: submissions queue deterministically until capacity.
  std::atomic<int> callbacks{0};
  const auto callback = [&callbacks](QueryResult) {
    callbacks.fetch_add(1);
  };
  const Rect window(0.2, 0.2, 0.4, 0.4);
  EXPECT_TRUE(
      service.Submit(QueryDescriptor::Window(window), callback).accepted);
  EXPECT_TRUE(
      service.Submit(QueryDescriptor::Window(window), callback).accepted);
  const Submission third =
      service.Submit(QueryDescriptor::Window(window), callback);
  EXPECT_FALSE(third.accepted);
  EXPECT_EQ(third.reason, RejectReason::kQueueFull);

  service.Start();
  while (callbacks.load() < 2) {
    std::this_thread::yield();
  }
  // The queue is empty again, so this admission leaves a depth of 1; the
  // peak keeps the 2 it reached before.
  EXPECT_EQ(service.Execute(QueryDescriptor::Window(window)).status,
            QueryStatus::kOk);
  service.Stop();
  EXPECT_EQ(callbacks.load(), 2) << "exactly one callback per accepted query";
  const auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1);
  EXPECT_EQ(stats.accepted, 3);
  EXPECT_EQ(stats.completed_ok, 3);
  EXPECT_EQ(stats.peak_queue_depth, 2);
}

TEST(ServiceTest, StoppedAndInvalidRejections) {
  const ServeFixture fixture(200, 200, 34);
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s,
                              ServiceConfig());
  service.Start();

  // Malformed descriptors never enter the queue.
  QueryDescriptor bad_window;
  bad_window.rect = Rect::Empty();
  EXPECT_EQ(service.Submit(bad_window, nullptr).reason,
            RejectReason::kInvalid);
  QueryDescriptor bad_knn = QueryDescriptor::Knn(Point{0.5, 0.5}, 0);
  EXPECT_EQ(service.Submit(bad_knn, nullptr).reason, RejectReason::kInvalid);

  service.Stop();
  const Submission after_stop = service.Submit(
      QueryDescriptor::Window(Rect(0.1, 0.1, 0.2, 0.2)), nullptr);
  EXPECT_FALSE(after_stop.accepted);
  EXPECT_EQ(after_stop.reason, RejectReason::kStopped);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.rejected_invalid, 2);
  EXPECT_EQ(stats.rejected_stopped, 1);
}

TEST(ServiceTest, ZeroDeadlineExpiresAtFirstCheck) {
  const ServeFixture fixture(400, 400, 35);
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s,
                              ServiceConfig());
  service.Start();
  QueryDescriptor query = QueryDescriptor::Window(fixture.tree_r.root_mbr());
  query.deadline_micros = 0;
  const QueryResult result = service.Execute(query);
  EXPECT_EQ(result.status, QueryStatus::kDeadlineExceeded);
  EXPECT_FALSE(result.complete);
  EXPECT_TRUE(result.ids.empty()) << "expired before the first node scan";

  QueryDescriptor knn = QueryDescriptor::Knn(Point{0.5, 0.5}, 3);
  knn.deadline_micros = 0;
  const QueryResult knn_result = service.Execute(knn);
  EXPECT_EQ(knn_result.status, QueryStatus::kDeadlineExceeded);
  EXPECT_TRUE(knn_result.neighbors.empty());
  EXPECT_GE(service.Stats().deadline_exceeded, 2);
}

TEST(ServiceTest, FakeClockMakesDeadlinesDeterministic) {
  const ServeFixture fixture(400, 400, 36);
  // now == 1000 forever: a 1 µs budget never expires (deadline 1001 > now),
  // a 0 µs budget always does (deadline 1000 <= now).
  ServiceConfig config;
  config.now_micros = [] { return int64_t{1000}; };
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
  service.Start();

  QueryDescriptor survives = QueryDescriptor::Window(Rect(0.3, 0.3, 0.4, 0.4));
  survives.deadline_micros = 1;
  EXPECT_EQ(service.Execute(survives).status, QueryStatus::kOk);

  QueryDescriptor expires = survives;
  expires.deadline_micros = 0;
  EXPECT_EQ(service.Execute(expires).status,
            QueryStatus::kDeadlineExceeded);
}

TEST(ServiceTest, BackwardsClockDeliversEveryCallback) {
  const ServeFixture fixture(400, 400, 40);
  // Each read is 10 µs earlier than the last, so every queue wait and
  // latency comes out negative; the accounting must not stop delivery.
  ServiceConfig config;
  auto now = std::make_shared<std::atomic<int64_t>>(1'000'000);
  config.now_micros = [now] { return now->fetch_sub(10); };
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
  std::atomic<int> callbacks{0};
  for (int i = 0; i < 8; ++i) {
    const double base = 0.1 * i;
    ASSERT_TRUE(service
                    .Submit(QueryDescriptor::Window(
                                Rect(base, base, base + 0.1, base + 0.1)),
                            [&callbacks](QueryResult) {
                              callbacks.fetch_add(1);
                            })
                    .accepted);
  }
  service.Start();
  service.Stop();
  EXPECT_EQ(callbacks.load(), 8);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.completed_ok + stats.deadline_exceeded, 8);
}

TEST(ServiceTest, ConcurrentSubmissionDrainsCompletely) {
  const ServeFixture fixture(600, 500, 37);
  ServiceConfig config;
  config.num_threads = 2;
  config.batch_window_micros = 50;
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
  service.Start();

  const std::vector<Rect> windows = fixture.MixedWindows();
  std::atomic<int> callbacks{0};
  int accepted = 0;
  for (int round = 0; round < 20; ++round) {
    for (const Rect& window : windows) {
      const TreeTarget target =
          round % 2 == 0 ? TreeTarget::kTreeR : TreeTarget::kTreeS;
      if (service
              .Submit(QueryDescriptor::Window(window, target),
                      [&callbacks](QueryResult) { callbacks.fetch_add(1); })
              .accepted) {
        ++accepted;
      }
    }
  }
  service.Stop();
  EXPECT_EQ(callbacks.load(), accepted);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.completed_ok, accepted);
  EXPECT_EQ(stats.latency_us.total_count(), accepted);
  EXPECT_GT(stats.batches_executed, 0);
}

TEST(ServiceTest, StatsCountBatchedQueries) {
  const ServeFixture fixture(500, 400, 38);
  ServiceConfig config;
  config.now_micros = [] { return int64_t{0}; };  // Skip the batch window.
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);
  const std::vector<Rect> windows = fixture.MixedWindows();
  std::atomic<int> callbacks{0};
  for (const Rect& window : windows) {
    ASSERT_TRUE(service
                    .Submit(QueryDescriptor::Window(window),
                            [&callbacks](QueryResult result) {
                              EXPECT_GT(result.batch_size, 1);
                              callbacks.fetch_add(1);
                            })
                    .accepted);
  }
  service.Start();  // One worker takes the whole pre-queued set as a batch.
  service.Stop();
  EXPECT_EQ(callbacks.load(), static_cast<int>(windows.size()));
  const auto stats = service.Stats();
  EXPECT_EQ(stats.batched_queries, static_cast<int64_t>(windows.size()));
  EXPECT_GT(stats.AvgBatchSize(), 1.0);
  EXPECT_GT(stats.descent.nodes_visited, 0);
}

// ---- The open-loop generator (smoke: real clock, tiny run) ----

TEST(LoadGenTest, SmokeRunVerifiesAgainstOracle) {
  const ServeFixture fixture(500, 400, 39);
  LoadGenOptions options;
  options.offered_qps = 500.0;
  options.duration_micros = 100'000;
  options.verify_every = 3;
  options.seed = 7;
  const auto result =
      RunOpenLoopLoad(fixture.tree_r, fixture.tree_s, options);
  EXPECT_GT(result.stats.completed_ok, 0);
  EXPECT_GT(result.verified_queries, 0);
  EXPECT_EQ(result.verify_failures, 0);
  EXPECT_EQ(result.stats.completed_ok + result.stats.deadline_exceeded,
            result.stats.accepted);
}

}  // namespace
}  // namespace psj
