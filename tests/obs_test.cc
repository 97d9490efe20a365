// Observability-layer tests (DESIGN.md §15): the sharded metrics registry
// keeps exact totals under concurrent writers plus a snapshot reader (the
// TSan target of the CI obs job), histogram shard merging round-trips
// through trace::Histogram::FromBuckets/Merge, quantile and percentile
// helpers survive their edge cases (empty, single-sample, q = 1.0,
// duplicate-heavy), exporters emit parseable Prometheus text and JSON with
// a stable empty shape, the periodic reporter actually ticks and rewrites
// its files, the service's registry-decoded counters obey their
// conservation identities under racing submitters and Stop(), and the
// native join's registry totals match its per-worker statistics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "data/map_builder.h"
#include "native/native_join.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/reporter.h"
#include "serve/load_gen.h"
#include "serve/query.h"
#include "serve/service.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"
#include "util/json_value.h"
#include "util/json_writer.h"

namespace psj {
namespace {

using obs::ComputeRates;
using obs::CounterRate;
using obs::ExportJsonSnapshot;
using obs::ExportPrometheusText;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::PeriodicReporter;
using obs::ReporterOptions;
using serve::ExactPercentile;
using serve::QueryDescriptor;
using serve::QueryResult;
using serve::ServiceConfig;
using serve::SpatialQueryService;
using trace::Histogram;

// ---- trace::Histogram quantiles, merge, and bucket round-trip ----

TEST(HistogramTest, EmptyHistogramAnswersZeroEverywhere) {
  Histogram h;
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.0), 0);
  EXPECT_EQ(h.ValueAtQuantile(0.5), 0);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, SingleSampleAnswersEveryQuantileWithThatSample) {
  Histogram h;
  h.Record(137);
  for (const double q : {0.0, 0.25, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.ValueAtQuantile(q), 137) << "q=" << q;
  }
}

TEST(HistogramTest, DuplicateHeavySamplesStayInsideTheirBucket) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Record(64);  // Exact power of two: lowest value of its bucket.
  }
  h.Record(4096);
  // 1000 of 1001 samples are 64: every quantile up to ~0.999 interpolates
  // inside 64's power-of-two bucket [64, 128) — never jumps to the outlier
  // — and q = 1.0 clamps to the true maximum.
  EXPECT_GE(h.ValueAtQuantile(0.5), 64);
  EXPECT_LT(h.ValueAtQuantile(0.5), 128);
  EXPECT_GE(h.ValueAtQuantile(0.95), 64);
  EXPECT_LT(h.ValueAtQuantile(0.95), 128);
  EXPECT_EQ(h.ValueAtQuantile(1.0), 4096);
  EXPECT_EQ(h.min(), 64);
  EXPECT_EQ(h.max(), 4096);
}

TEST(HistogramTest, QuantilesAreMonotoneAndClampedToMinMax) {
  Histogram h;
  for (int i = 1; i <= 10000; ++i) {
    h.Record(i);
  }
  int64_t previous = -1;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const int64_t v = h.ValueAtQuantile(q);
    EXPECT_GE(v, previous);
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    previous = v;
  }
  // Log-bucket resolution: relative error under 2x around the median.
  const int64_t p50 = h.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 2500);
  EXPECT_LE(p50, 10000);
}

TEST(HistogramTest, MergeAddsCountsAndWidensMinMax) {
  Histogram a;
  Histogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(4000);
  a.Merge(b);
  EXPECT_EQ(a.total_count(), 4);
  EXPECT_EQ(a.sum(), 4035);
  EXPECT_EQ(a.min(), 5);
  EXPECT_EQ(a.max(), 4000);

  // Merging an empty histogram is the identity, both ways.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.total_count(), 4);
  empty.Merge(a);
  EXPECT_EQ(empty.total_count(), 4);
  EXPECT_EQ(empty.min(), 5);
  EXPECT_EQ(empty.max(), 4000);
}

TEST(HistogramTest, FromBucketsRoundTripsARecordedHistogram) {
  Histogram original;
  for (const int64_t v : {0, 1, 3, 64, 64, 900, 123456}) {
    original.Record(v);
  }
  int64_t buckets[Histogram::kNumBuckets];
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    buckets[i] = original.bucket_count(i);
  }
  const Histogram rebuilt = Histogram::FromBuckets(
      buckets, original.sum(), original.min(), original.max());
  EXPECT_EQ(rebuilt.total_count(), original.total_count());
  EXPECT_EQ(rebuilt.sum(), original.sum());
  EXPECT_EQ(rebuilt.min(), original.min());
  EXPECT_EQ(rebuilt.max(), original.max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(rebuilt.bucket_count(i), original.bucket_count(i)) << i;
  }
}

// ---- serve::ExactPercentile edge cases (satellite) ----

TEST(ExactPercentileTest, EmptyVectorAnswersZero) {
  EXPECT_EQ(ExactPercentile({}, 0.5), 0);
  EXPECT_EQ(ExactPercentile({}, 1.0), 0);
}

TEST(ExactPercentileTest, SingleElementAnswersEveryQuantile) {
  const std::vector<int64_t> one = {42};
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(ExactPercentile(one, q), 42) << "q=" << q;
  }
}

TEST(ExactPercentileTest, FullQuantileIsTheMaximumNotPastTheEnd) {
  const std::vector<int64_t> sorted = {1, 2, 3, 4, 5};
  EXPECT_EQ(ExactPercentile(sorted, 1.0), 5);
  EXPECT_EQ(ExactPercentile(sorted, 0.0), 1);
  EXPECT_EQ(ExactPercentile(sorted, 0.5), 3);
  // Out-of-range q clamps instead of indexing out of bounds.
  EXPECT_EQ(ExactPercentile(sorted, 1.5), 5);
  EXPECT_EQ(ExactPercentile(sorted, -0.5), 1);
}

TEST(ExactPercentileTest, DuplicateHeavyVector) {
  std::vector<int64_t> sorted(99, 7);
  sorted.push_back(1000);
  EXPECT_EQ(ExactPercentile(sorted, 0.5), 7);
  EXPECT_EQ(ExactPercentile(sorted, 0.98), 7);
  EXPECT_EQ(ExactPercentile(sorted, 1.0), 1000);
}

// ---- MetricsRegistry: lifecycle, sharding, snapshots ----

TEST(MetricsRegistryTest, DefineIsIdempotentByName) {
  MetricsRegistry registry(2);
  const obs::CounterId a = registry.DefineCounter("test_ops_count");
  const obs::CounterId b = registry.DefineCounter("test_ops_count");
  EXPECT_EQ(a.index, b.index);
  const obs::GaugeId g1 = registry.DefineGauge("test_depth_count");
  const obs::GaugeId g2 = registry.DefineGauge("test_depth_count");
  EXPECT_EQ(g1.index, g2.index);
  const obs::HistogramId h1 = registry.DefineHistogram("test_lat_us");
  const obs::HistogramId h2 = registry.DefineHistogram("test_lat_us");
  EXPECT_EQ(h1.index, h2.index);
}

TEST(MetricsRegistryTest, PreFreezeSnapshotHasAllZeroShape) {
  MetricsRegistry registry(4);
  registry.DefineCounter("test_ops_count");
  registry.DefineHistogram("test_lat_us");
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].value, 0);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].histogram.total_count(), 0);
  EXPECT_FALSE(registry.frozen());
}

TEST(MetricsRegistryTest, CounterShardsSumAndHintWrapsModulo) {
  MetricsRegistry registry(3);
  const obs::CounterId ops = registry.DefineCounter("test_ops_count");
  registry.Freeze();
  registry.Freeze();  // Idempotent.
  for (int hint = 0; hint < 12; ++hint) {
    registry.Add(hint, ops, 1);  // Hints 3..11 wrap onto shards 0..2.
  }
  registry.Add(0, ops, 100);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::Counter* counter =
      snapshot.FindCounter("test_ops_count");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value, 112);
  EXPECT_EQ(snapshot.FindCounter("absent_count"), nullptr);
}

TEST(MetricsRegistryTest, GaugeIsLastWriteWins) {
  MetricsRegistry registry(2);
  const obs::GaugeId depth = registry.DefineGauge("test_depth_count");
  registry.Freeze();
  registry.Set(depth, 5);
  registry.Set(depth, 3);
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::Gauge* gauge = snapshot.FindGauge("test_depth_count");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 3);
}

TEST(MetricsRegistryTest, HistogramMergesAcrossShards) {
  MetricsRegistry registry(4);
  const obs::HistogramId lat = registry.DefineHistogram("test_lat_us");
  registry.Freeze();
  // 100 samples spread over every shard; totals must be exact.
  int64_t expected_sum = 0;
  for (int i = 1; i <= 100; ++i) {
    registry.Record(i % 4, lat, i);
    expected_sum += i;
  }
  const MetricsSnapshot snapshot = registry.Snapshot();
  const MetricsSnapshot::HistogramEntry* entry =
      snapshot.FindHistogram("test_lat_us");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->histogram.total_count(), 100);
  EXPECT_EQ(entry->histogram.sum(), expected_sum);
  EXPECT_EQ(entry->histogram.min(), 1);
  EXPECT_EQ(entry->histogram.max(), 100);
  const int64_t p50 = entry->histogram.ValueAtQuantile(0.5);
  EXPECT_GE(p50, 25);
  EXPECT_LE(p50, 100);
}

// The CI obs job runs this under TSan: concurrent writers on distinct
// shard hints plus a reader snapshotting mid-flight must be race-free,
// and the post-join snapshot must be exact.
TEST(MetricsRegistryTest, ConcurrentWritersWithSnapshotReader) {
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 20000;
  MetricsRegistry registry(kWriters);
  const obs::CounterId ops = registry.DefineCounter("test_ops_count");
  const obs::GaugeId depth = registry.DefineGauge("test_depth_count");
  const obs::HistogramId lat = registry.DefineHistogram("test_lat_us");
  registry.Freeze();

  std::atomic<bool> done{false};
  std::thread reader([&] {
    int64_t last = 0;
    // order: acquire — pairs with the release store after the writers
    // join, so the reader's final iterations see the completed totals.
    while (!done.load(std::memory_order_acquire)) {
      const MetricsSnapshot snapshot = registry.Snapshot();
      const MetricsSnapshot::Counter* counter =
          snapshot.FindCounter("test_ops_count");
      ASSERT_NE(counter, nullptr);
      // Monotone: counters only grow, and Snapshot never tears a cell.
      EXPECT_GE(counter->value, last);
      last = counter->value;
      const MetricsSnapshot::HistogramEntry* entry =
          snapshot.FindHistogram("test_lat_us");
      ASSERT_NE(entry, nullptr);
      // Count is derived from the bucket cells, so it is self-consistent
      // even mid-flight.
      int64_t bucket_total = 0;
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        bucket_total += entry->histogram.bucket_count(i);
      }
      EXPECT_EQ(entry->histogram.total_count(), bucket_total);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        registry.Add(w, ops, 1);
        registry.Record(w, lat, (i % 1024) + 1);
        registry.Set(depth, i);
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  // order: release — publishes the joined writers' updates to the reader
  // loop's acquire load above.
  done.store(true, std::memory_order_release);
  reader.join();

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.FindCounter("test_ops_count")->value,
            int64_t{kWriters} * kPerWriter);
  const Histogram& merged = snapshot.FindHistogram("test_lat_us")->histogram;
  EXPECT_EQ(merged.total_count(), int64_t{kWriters} * kPerWriter);
  EXPECT_EQ(merged.min(), 1);
  EXPECT_EQ(merged.max(), 1024);
}

// ---- Exporters ----

MetricsRegistry& PopulatedRegistry() {
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry(2);
    const obs::CounterId ops = r->DefineCounter("test_ops_count");
    const obs::GaugeId depth = r->DefineGauge("test_depth_count");
    const obs::HistogramId lat = r->DefineHistogram("test_lat_us");
    r->DefineHistogram("test_empty_us");  // Stays empty on purpose.
    r->Freeze();
    r->Add(0, ops, 41);
    r->Add(1, ops, 1);
    r->Set(depth, 7);
    for (int i = 1; i <= 8; ++i) {
      r->Record(i % 2, lat, i);
    }
    return r;
  }();
  return *registry;
}

TEST(ExportTest, PrometheusTextHasTypedSeriesAndCumulativeBuckets) {
  const std::string text = ExportPrometheusText(PopulatedRegistry().Snapshot());
  EXPECT_NE(text.find("# TYPE test_ops_count counter"), std::string::npos);
  EXPECT_NE(text.find("test_ops_count 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_depth_count gauge"), std::string::npos);
  EXPECT_NE(text.find("test_depth_count 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_lat_us histogram"), std::string::npos);
  // Samples 1..8: cumulative le="7" holds 7 of them, +Inf all 8.
  EXPECT_NE(text.find("test_lat_us_bucket{le=\"7\"} 7"), std::string::npos);
  EXPECT_NE(text.find("test_lat_us_bucket{le=\"+Inf\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("test_lat_us_sum 36"), std::string::npos);
  EXPECT_NE(text.find("test_lat_us_count 8"), std::string::npos);
  // The empty histogram is still a complete scrapable series.
  EXPECT_NE(text.find("test_empty_us_bucket{le=\"+Inf\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("test_empty_us_count 0"), std::string::npos);
}

TEST(ExportTest, JsonSnapshotParsesWithRatesAndQuantiles) {
  const std::vector<CounterRate> rates = {{"test_ops_count", 21.0}};
  const std::string text =
      ExportJsonSnapshot(PopulatedRegistry().Snapshot(), rates);
  const auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = *parsed;

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("test_ops_count")->AsDouble(), 42.0);

  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("test_depth_count")->AsDouble(), 7.0);

  const JsonValue* histograms = root.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* lat = histograms->Find("test_lat_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Find("count")->AsDouble(), 8.0);
  EXPECT_EQ(lat->Find("min")->AsDouble(), 1.0);
  EXPECT_EQ(lat->Find("max")->AsDouble(), 8.0);
  ASSERT_NE(lat->Find("p50"), nullptr);
  ASSERT_NE(lat->Find("p99"), nullptr);

  // The empty histogram keeps the identical shape with zero values.
  const JsonValue* empty = histograms->Find("test_empty_us");
  ASSERT_NE(empty, nullptr);
  EXPECT_EQ(empty->Find("count")->AsDouble(), 0.0);
  ASSERT_NE(empty->Find("p50"), nullptr);
  EXPECT_EQ(empty->Find("p50")->AsDouble(), 0.0);

  const JsonValue* per_sec = root.Find("rates_per_sec");
  ASSERT_NE(per_sec, nullptr);
  EXPECT_EQ(per_sec->Find("test_ops_count")->AsDouble(), 21.0);
}

TEST(ExportTest, JsonSnapshotWithoutRatesKeepsTheRatesObject) {
  const std::string text = ExportJsonSnapshot(PopulatedRegistry().Snapshot());
  const auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("rates_per_sec"), nullptr);
  EXPECT_TRUE(parsed->Find("rates_per_sec")->AsObject().empty());
}

TEST(ExportTest, WriteHistogramJsonEmptyHistogramIsValidAndAllZero) {
  Histogram empty;
  JsonWriter json;
  trace::WriteHistogramJson(json, empty);
  const auto parsed = JsonValue::Parse(json.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("count")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("sum")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("min")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("max")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("p50")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("p95")->AsDouble(), 0.0);
  EXPECT_EQ(parsed->Find("p99")->AsDouble(), 0.0);
}

// ---- Rates and the periodic reporter ----

TEST(ReporterTest, ComputeRatesDifferencesMatchingCounters) {
  MetricsSnapshot previous;
  previous.counters.push_back({"test_ops_count", 100});
  MetricsSnapshot current;
  current.counters.push_back({"test_ops_count", 150});
  current.counters.push_back({"test_new_count", 10});

  const std::vector<CounterRate> rates = ComputeRates(current, previous, 2.0);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0].name, "test_ops_count");
  EXPECT_DOUBLE_EQ(rates[0].per_second, 25.0);
  // A counter absent from the previous snapshot rates from zero.
  EXPECT_EQ(rates[1].name, "test_new_count");
  EXPECT_DOUBLE_EQ(rates[1].per_second, 5.0);

  EXPECT_TRUE(ComputeRates(current, previous, 0.0).empty());
  EXPECT_TRUE(ComputeRates(current, previous, -1.0).empty());
}

TEST(ReporterTest, PeriodicReporterTicksAndRewritesFiles) {
  MetricsRegistry registry(1);
  const obs::CounterId ops = registry.DefineCounter("test_ops_count");
  registry.Freeze();

  const std::string prom_path =
      testing::TempDir() + "/obs_reporter_test.prom";
  const std::string json_path =
      testing::TempDir() + "/obs_reporter_test.json";
  ReporterOptions options;
  options.interval_ms = 20;
  options.prometheus_path = prom_path;
  options.json_path = json_path;
  std::atomic<int64_t> callback_count{0};
  options.on_interval = [&](const MetricsSnapshot& current,
                            const MetricsSnapshot& previous,
                            double interval_seconds) {
    EXPECT_GE(interval_seconds, 0.0);
    EXPECT_GE(current.counters.size(), previous.counters.size());
    callback_count.fetch_add(1);
  };

  PeriodicReporter reporter(&registry, options);
  reporter.Start();
  registry.Add(0, ops, 9);
  // Real clock (sanctioned: src/obs is a wall-clock layer); generous
  // bound — at least one interval must fire within a second.
  for (int i = 0; i < 100 && reporter.intervals_emitted() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  reporter.Stop();
  reporter.Stop();  // Idempotent.

  EXPECT_GE(reporter.intervals_emitted(), 2);
  EXPECT_GE(callback_count.load(), 2);

  std::ifstream prom(prom_path);
  ASSERT_TRUE(prom.good());
  std::stringstream prom_text;
  prom_text << prom.rdbuf();
  EXPECT_NE(prom_text.str().find("test_ops_count 9"), std::string::npos);

  std::ifstream json(json_path);
  ASSERT_TRUE(json.good());
  std::stringstream json_text;
  json_text << json.rdbuf();
  const auto parsed = JsonValue::Parse(json_text.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("counters")->Find("test_ops_count")->AsDouble(),
            9.0);
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

// ---- Serve integration: the service's counters obey their identities ----

struct ObsServeFixture {
  ObjectStore store_r;
  ObjectStore store_s;
  RStarTree tree_r;
  RStarTree tree_s;

  ObsServeFixture(int count_r, int count_s, uint64_t seed)
      : store_r(GenerateUniformSegments(seed, count_r, 0.01)),
        store_s(GenerateUniformSegments(seed + 1, count_s, 0.02)),
        tree_r(BuildTreeFromObjects(1, store_r.objects())),
        tree_s(BuildTreeFromObjects(2, store_s.objects())) {}
};

TEST(ServeObsTest, CountersObeyConservationIdentities) {
  const ObsServeFixture fixture(400, 300, 91);
  ServiceConfig config;
  config.num_threads = 2;
  config.queue_capacity = 16;
  MetricsRegistry registry(config.num_threads + 1);
  config.metrics = &registry;
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);

  // Two submitters run until Stop() turns them away. Before Start() they
  // fill the queue and see it full; every 7th descriptor is invalid and
  // every 5th window has a zero deadline, so every outcome occurs.
  std::atomic<int64_t> callbacks{0};
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> queue_full{0};
  std::atomic<int64_t> stopped{0};
  std::atomic<int64_t> invalid{0};
  const auto submit_until_stopped = [&](int first_index) {
    for (int i = first_index;; i += 2) {
      QueryDescriptor query;
      if (i % 7 == 0) {
        query = QueryDescriptor::Knn(Point{0.5, 0.5}, 0);
      } else if (i % 11 == 0) {
        query = QueryDescriptor::Knn(Point{0.3, 0.6}, 4);
      } else {
        const double base = 0.05 * (i % 17);
        query = QueryDescriptor::Window(
            Rect(base, base, base + 0.1, base + 0.1));
        query.deadline_micros = i % 5 == 0 ? 0 : -1;
      }
      const serve::Submission submission = service.Submit(
          query, [&callbacks](QueryResult) { callbacks.fetch_add(1); });
      calls.fetch_add(1);
      switch (submission.reason) {
        case serve::RejectReason::kNone: accepted.fetch_add(1); break;
        case serve::RejectReason::kQueueFull: queue_full.fetch_add(1); break;
        case serve::RejectReason::kInvalid: invalid.fetch_add(1); break;
        case serve::RejectReason::kStopped: stopped.fetch_add(1); return;
      }
    }
  };
  std::thread first(submit_until_stopped, 0);
  std::thread second(submit_until_stopped, 1);
  while (queue_full.load() == 0) {
    std::this_thread::yield();
  }
  EXPECT_TRUE(registry.frozen()) << "the first Submit() freezes";
  service.Start();
  while (calls.load() < 2'000) {
    std::this_thread::yield();
  }
  service.Stop();  // Races both submitters.
  first.join();
  second.join();

  const serve::ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.submitted, calls.load());
  EXPECT_EQ(stats.accepted, accepted.load());
  EXPECT_EQ(stats.rejected_queue_full, queue_full.load());
  EXPECT_EQ(stats.rejected_stopped, stopped.load());
  EXPECT_EQ(stats.rejected_invalid, invalid.load());
  EXPECT_EQ(stats.rejected_stopped, 2);
  EXPECT_GT(stats.rejected_invalid, 0);
  EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_queue_full +
                                 stats.rejected_stopped +
                                 stats.rejected_invalid);

  EXPECT_GT(stats.deadline_exceeded, 0);
  EXPECT_EQ(stats.accepted, stats.completed_ok + stats.deadline_exceeded);
  EXPECT_EQ(stats.accepted, callbacks.load())
      << "exactly one callback per accepted query";

  EXPECT_EQ(stats.latency_us.total_count(), stats.accepted);
  EXPECT_EQ(stats.queue_wait_us.total_count(), stats.accepted);
  EXPECT_EQ(stats.batch_size.sum(), stats.accepted);
  EXPECT_EQ(stats.batch_size.total_count(), stats.batches_executed);
  EXPECT_GT(stats.descent.node_scans, 0);
  EXPECT_GT(stats.descent.pairs_grouped, 0);

  // A queue-full rejection needs a full queue, so the peak reached the
  // capacity and no further.
  EXPECT_EQ(stats.peak_queue_depth,
            static_cast<int64_t>(config.queue_capacity));
  // Everything drained: the queue-depth gauge reads zero at the end.
  EXPECT_EQ(registry.Snapshot().FindGauge("serve_queue_depth_count")->value,
            0);
}

TEST(ServeObsTest, SampledRequestSpansLandOnRequestTracks) {
  const ObsServeFixture fixture(300, 300, 92);
  trace::TraceSink sink;
  ServiceConfig config;
  config.now_micros = [] { return int64_t{0}; };
  config.trace = &sink;
  config.trace_sample_every = 2;  // Admission ids 1, 3, 5, 7 sampled.
  SpatialQueryService service(&fixture.tree_r, &fixture.tree_s, config);

  std::atomic<int> callbacks{0};
  for (int i = 0; i < 8; ++i) {
    const double base = 0.3 + 0.03 * i;
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

  int64_t request_spans = 0;
  for (const trace::TraceEvent& event : sink.events()) {
    if (event.category == trace::Category::kRequest) {
      ++request_spans;
      EXPECT_GE(event.track, serve::kRequestTrackBase);
      EXPECT_EQ(event.arg0 % 2, 1);  // Sampled ids are the odd ones.
      EXPECT_GT(event.arg1, 0);      // Batch attribution rides in arg1.
    }
  }
  EXPECT_EQ(request_spans, 4);
}

// ---- Native join integration: registry totals match per-worker stats ----

TEST(NativeObsTest, RegistryTotalsMatchPerWorkerStats) {
  const ObsServeFixture fixture(800, 700, 93);
  native::NativeJoinConfig config;
  config.num_threads = 2;
  MetricsRegistry registry(config.num_threads);
  config.metrics = &registry;

  const native::NativeJoinResult with_metrics =
      NativeRTreeJoin(fixture.tree_r, fixture.tree_s, config);

  int64_t tasks = 0;
  int64_t node_pairs = 0;
  int64_t candidates = 0;
  int64_t busy_us = 0;
  for (const native::NativeWorkerStats& w : with_metrics.per_worker) {
    tasks += w.tasks_executed;
    node_pairs += w.node_pairs_processed;
    candidates += w.candidates;
    busy_us += w.busy_us;
  }
  ASSERT_GT(tasks, 0);

  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.FindCounter("native_tasks_executed_count")->value,
            tasks);
  EXPECT_EQ(snapshot.FindCounter("native_node_pairs_count")->value,
            node_pairs);
  EXPECT_EQ(snapshot.FindCounter("native_candidates_count")->value,
            candidates);
  EXPECT_EQ(snapshot.FindCounter("native_worker_busy_us")->value, busy_us);
  EXPECT_EQ(snapshot.FindHistogram("native_task_duration_us")
                ->histogram.total_count(),
            tasks);
  EXPECT_EQ(static_cast<int64_t>(with_metrics.candidates.size()), candidates);

  // The metrics-off run returns the same candidate set and leaves
  // busy_us at its documented zero.
  native::NativeJoinConfig off = config;
  off.metrics = nullptr;
  const native::NativeJoinResult without =
      NativeRTreeJoin(fixture.tree_r, fixture.tree_s, off);
  EXPECT_EQ(without.candidates.size(), with_metrics.candidates.size());
  for (const native::NativeWorkerStats& w : without.per_worker) {
    EXPECT_EQ(w.busy_us, 0);
  }
}

}  // namespace
}  // namespace psj
