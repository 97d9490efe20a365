// Trace subsystem tests: sink/histogram units, the Chrome trace-event
// export schema (well-formed JSON, monotone per-track timestamps, one track
// per simulated processor), byte-identical repeated exports, and the
// timeline analyzer's accounting invariants.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "join/sequential_join.h"
#include "trace/chrome_trace.h"
#include "trace/flame.h"
#include "trace/timeline.h"
#include "trace/trace_sink.h"

namespace psj {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator (structure only): objects, arrays, strings,
// numbers, true/false/null. Returns true iff the whole input is exactly one
// well-formed value.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) {
      return false;
    }
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    const size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;  // Skip the escaped character blindly.
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // Closing quote.
    return true;
  }

  bool Number() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Value() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipSpace();
      if (!String()) {
        return false;
      }
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return false;
      }
      ++pos_;
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != '}') {
      return false;
    }
    ++pos_;
    return true;
  }

  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      if (!Value()) {
        return false;
      }
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (pos_ >= text_.size() || text_[pos_] != ']') {
      return false;
    }
    ++pos_;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// Extracts the integer value following every occurrence of `"key": ` in
// `text` — good enough for the exporter's own fixed formatting.
std::vector<int64_t> ExtractInts(const std::string& text,
                                 const std::string& key) {
  std::vector<int64_t> values;
  const std::string needle = "\"" + key + "\": ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    if (pos < text.size() &&
        (text[pos] == '-' ||
         std::isdigit(static_cast<unsigned char>(text[pos])) != 0)) {
      values.push_back(std::strtoll(text.c_str() + pos, nullptr, 10));
    }
  }
  return values;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(HistogramTest, PowerOfTwoBuckets) {
  trace::Histogram h;
  h.Record(0);  // Bucket 0.
  h.Record(1);  // Bucket 1: [1, 2).
  h.Record(2);  // Bucket 2: [2, 4).
  h.Record(3);  // Bucket 2.
  h.Record(4);  // Bucket 3: [4, 8).
  h.Record(7);  // Bucket 3.
  h.Record(8);  // Bucket 4: [8, 16).
  EXPECT_EQ(h.bucket_count(0), 1);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
  EXPECT_EQ(h.bucket_count(3), 2);
  EXPECT_EQ(h.bucket_count(4), 1);
  EXPECT_EQ(h.total_count(), 7);
  EXPECT_EQ(h.sum(), 25);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 8);
  EXPECT_EQ(h.HighestBucket(), 4);
}

TEST(HistogramTest, BucketLowerBounds) {
  EXPECT_EQ(trace::Histogram::BucketLowerBound(0), 0);
  EXPECT_EQ(trace::Histogram::BucketLowerBound(1), 1);
  EXPECT_EQ(trace::Histogram::BucketLowerBound(2), 2);
  EXPECT_EQ(trace::Histogram::BucketLowerBound(3), 4);
  EXPECT_EQ(trace::Histogram::BucketLowerBound(10), 512);
}

TEST(HistogramTest, HugeValuesLandInTheLastBucket) {
  trace::Histogram h;
  h.Record(INT64_MAX);
  EXPECT_EQ(h.bucket_count(trace::Histogram::kNumBuckets - 1), 1);
  EXPECT_EQ(h.max(), INT64_MAX);
  EXPECT_EQ(h.HighestBucket(), trace::Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, EmptyHistogram) {
  const trace::Histogram h;
  EXPECT_EQ(h.total_count(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.HighestBucket(), -1);
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

TEST(TraceSinkTest, RecordsSpansAndInstants) {
  trace::TraceSink sink;
  sink.Span(0, trace::Category::kTask, "task", 10, 30, 7);
  sink.Instant(1, trace::Category::kNodePair, "pair", 15, 3, 2);
  ASSERT_EQ(sink.events().size(), 2u);
  EXPECT_EQ(sink.events()[0].start, 10);
  EXPECT_EQ(sink.events()[0].end, 30);
  EXPECT_EQ(sink.events()[0].arg0, 7);
  EXPECT_EQ(sink.events()[1].start, sink.events()[1].end);
}

TEST(TraceSinkTest, HistogramPointersAreStable) {
  trace::TraceSink sink;
  trace::Histogram* h = sink.histogram("lat");
  for (int i = 0; i < 100; ++i) {
    sink.histogram(std::to_string(i))->Record(i);
  }
  EXPECT_EQ(sink.histogram("lat"), h);
  EXPECT_EQ(sink.FindHistogram("lat"), h);
  EXPECT_EQ(sink.FindHistogram("missing"), nullptr);
}

TEST(TraceSinkTest, TrackNames) {
  trace::TraceSink sink;
  sink.SetTrackName(2, "cpu 2");
  sink.SetTrackName(trace::DiskTrack(0), "disk 0");
  EXPECT_EQ(sink.TrackName(2), "cpu 2");
  EXPECT_EQ(sink.TrackName(5), "track 5");
  const std::vector<int32_t> tracks = sink.Tracks();
  ASSERT_EQ(tracks.size(), 2u);
  EXPECT_EQ(tracks[0], 2);
  EXPECT_EQ(tracks[1], trace::DiskTrack(0));
}

// ---------------------------------------------------------------------------
// Traced join runs: schema + reproducibility
// ---------------------------------------------------------------------------

const PaperWorkload& TinyWorkload() {
  static const PaperWorkload* workload = [] {
    PaperWorkloadSpec spec;
    spec = spec.Scaled(0.02);
    return new PaperWorkload(spec);
  }();
  return *workload;
}

// A Figure-7-style configuration: the gd variant with reassignment and
// fewer disks than processors so queueing, steals and remote hits all
// appear in the trace.
ParallelJoinConfig TracedConfig() {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.num_processors = 4;
  config.num_disks = 2;
  config.total_buffer_pages = 160;
  config.reassignment = ReassignmentLevel::kAllLevels;
  return config;
}

JoinResult RunTraced(trace::TraceSink* sink) {
  ParallelJoinConfig config = TracedConfig();
  config.trace = sink;
  auto result = TinyWorkload().RunJoin(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

TEST(ChromeTraceTest, ExportIsWellFormedJson) {
  trace::TraceSink sink;
  RunTraced(&sink);
  ASSERT_FALSE(sink.events().empty());
  const std::string json = trace::ExportChromeTrace(sink);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json.substr(0, 400);
}

TEST(ChromeTraceTest, TimestampsAreMonotonePerTrack) {
  trace::TraceSink sink;
  RunTraced(&sink);
  const std::string json = trace::ExportChromeTrace(sink);
  // The exporter emits one "tid" and one "ts" per trace event, in document
  // order (metadata records carry no "ts"), so the two sequences pair up.
  const std::vector<int64_t> tids = ExtractInts(json, "tid");
  const std::vector<int64_t> ts = ExtractInts(json, "ts");
  const size_t num_meta = tids.size() - ts.size();
  ASSERT_GT(ts.size(), 0u);
  ASSERT_LE(num_meta, tids.size());
  std::map<int64_t, int64_t> last_ts;
  for (size_t i = 0; i < ts.size(); ++i) {
    const int64_t tid = tids[num_meta + i];
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts[i]) << "track " << tid << " event " << i;
    }
    last_ts[tid] = ts[i];
  }
}

TEST(ChromeTraceTest, OneTrackPerProcessorPlusDisks) {
  trace::TraceSink sink;
  RunTraced(&sink);
  const ParallelJoinConfig config = TracedConfig();
  int processor_tracks = 0;
  int disk_tracks = 0;
  for (const int32_t track : sink.Tracks()) {
    if (track >= 0 && track < config.num_processors) {
      ++processor_tracks;
    } else if (track >= trace::kDiskTrackBase) {
      ++disk_tracks;
    }
  }
  EXPECT_EQ(processor_tracks, config.num_processors);
  EXPECT_EQ(disk_tracks, config.num_disks);
  // The export names every track via thread_name metadata.
  const std::string json = trace::ExportChromeTrace(sink);
  EXPECT_NE(json.find("\"cpu 0\""), std::string::npos);
  EXPECT_NE(json.find("\"disk 0\""), std::string::npos);
}

TEST(ChromeTraceTest, RepeatedRunsExportByteIdenticalTraces) {
  trace::TraceSink sink_a;
  trace::TraceSink sink_b;
  const JoinResult first = RunTraced(&sink_a);
  const JoinResult second = RunTraced(&sink_b);
  EXPECT_EQ(first, second);
  const std::string json_a = trace::ExportChromeTrace(sink_a);
  const std::string json_b = trace::ExportChromeTrace(sink_b);
  EXPECT_FALSE(json_a.empty());
  EXPECT_EQ(json_a, json_b);
}

TEST(ChromeTraceTest, TracingDoesNotChangeTheJoinResult) {
  trace::TraceSink sink;
  const JoinResult traced = RunTraced(&sink);
  auto untraced = TinyWorkload().RunJoin(TracedConfig());
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(traced, *untraced);
}

TEST(ChromeTraceTest, RecordsTheExpectedEventMix) {
  trace::TraceSink sink;
  const JoinResult result = RunTraced(&sink);
  int64_t tasks = 0;
  int64_t node_pairs = 0;
  int64_t disk_services = 0;
  int64_t creation = 0;
  for (const trace::TraceEvent& event : sink.events()) {
    switch (event.category) {
      case trace::Category::kTask:
        tasks += event.end > event.start ? 1 : 0;
        break;
      case trace::Category::kNodePair:
        ++node_pairs;
        break;
      case trace::Category::kDiskService:
        ++disk_services;
        break;
      case trace::Category::kTaskCreation:
        ++creation;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(creation, 1);
  int64_t expected_pairs = 0;
  for (const auto& p : result.stats.per_processor) {
    expected_pairs += p.node_pairs_processed;
  }
  EXPECT_EQ(node_pairs, expected_pairs);
  EXPECT_EQ(disk_services, result.stats.total_disk_accesses);
  EXPECT_GT(tasks, 0);
  // Every executed task landed in the duration histogram.
  const trace::Histogram* durations = sink.FindHistogram("task_duration_us");
  ASSERT_NE(durations, nullptr);
  EXPECT_EQ(durations->total_count(), tasks);
  // Disk queueing was recorded per read.
  const trace::Histogram* queue_wait =
      sink.FindHistogram("disk_queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_EQ(queue_wait->total_count(), result.stats.total_disk_accesses);
  EXPECT_EQ(queue_wait->sum(), result.stats.total_disk_wait);
}

TEST(SequentialJoinTraceTest, EmitsSyntheticTimeline) {
  trace::TraceSink sink;
  SequentialJoinOptions options;
  options.trace = &sink;
  const SequentialJoinResult result = SequentialRTreeJoin(
      TinyWorkload().tree_r(), TinyWorkload().tree_s(), options);
  EXPECT_GT(result.node_reads, 0);
  int64_t reads = 0;
  int64_t top_spans = 0;
  for (const trace::TraceEvent& event : sink.events()) {
    if (event.category == trace::Category::kBufferMiss) {
      ++reads;
    } else if (event.category == trace::Category::kTask) {
      ++top_spans;
    }
  }
  EXPECT_EQ(reads, result.node_reads);
  EXPECT_EQ(top_spans, 1);
  const std::string json = trace::ExportChromeTrace(sink);
  EXPECT_TRUE(JsonValidator(json).Valid());
}

// ---------------------------------------------------------------------------
// Timeline analyzer
// ---------------------------------------------------------------------------

TEST(TimelineTest, FractionsSumToOnePerBucket) {
  trace::TraceSink sink;
  const JoinResult result = RunTraced(&sink);
  const trace::TimelineTable table = trace::AnalyzeTimeline(
      sink, TracedConfig().num_processors, result.stats.response_time);
  ASSERT_EQ(table.per_processor.size(),
            static_cast<size_t>(TracedConfig().num_processors));
  for (const trace::TrackUtilization& row : table.per_processor) {
    ASSERT_EQ(row.busy.size(), static_cast<size_t>(table.num_buckets));
    for (size_t b = 0; b < row.busy.size(); ++b) {
      const double sum =
          row.busy[b] + row.io_wait[b] + row.steal[b] + row.idle[b];
      EXPECT_NEAR(sum, 1.0, 1e-9) << "bucket " << b;
      EXPECT_GE(row.busy[b], 0.0);
      EXPECT_GE(row.io_wait[b], 0.0);
      EXPECT_GE(row.steal[b], 0.0);
      EXPECT_GE(row.idle[b], 0.0);
    }
    EXPECT_LE(row.total_busy + row.total_io_wait + row.total_steal +
                  row.total_idle,
              table.end_time + table.bucket_width);
  }
}

TEST(TimelineTest, SyntheticSpansClassifyAsExpected) {
  trace::TraceSink sink;
  // One processor: a task from 0-100 containing a disk read 40-90, then
  // idle until 200.
  sink.Span(0, trace::Category::kTask, "task", 0, 100);
  sink.Span(0, trace::Category::kBufferMiss, "read", 40, 90);
  const trace::TimelineTable table =
      trace::AnalyzeTimeline(sink, 1, 200, /*num_buckets=*/2);
  ASSERT_EQ(table.per_processor.size(), 1u);
  const trace::TrackUtilization& row = table.per_processor[0];
  // Bucket 0 covers [0, 100): 50 us busy, 50 us I/O.
  EXPECT_NEAR(row.busy[0], 0.5, 1e-9);
  EXPECT_NEAR(row.io_wait[0], 0.5, 1e-9);
  EXPECT_NEAR(row.idle[0], 0.0, 1e-9);
  // Bucket 1 covers [100, 200): all idle.
  EXPECT_NEAR(row.idle[1], 1.0, 1e-9);
  EXPECT_EQ(row.total_busy, 50);
  EXPECT_EQ(row.total_io_wait, 50);
  EXPECT_EQ(row.total_idle, 100);
}

TEST(TimelineTest, FormatMentionsEveryProcessor) {
  trace::TraceSink sink;
  const JoinResult result = RunTraced(&sink);
  const trace::TimelineTable table = trace::AnalyzeTimeline(
      sink, TracedConfig().num_processors, result.stats.response_time);
  const std::string text = table.Format();
  for (int cpu = 0; cpu < TracedConfig().num_processors; ++cpu) {
    EXPECT_NE(text.find("cpu " + std::to_string(cpu)), std::string::npos);
  }
  EXPECT_NE(text.find("busy"), std::string::npos);
}


// ---------------------------------------------------------------------------
// Collapsed-stack (folded) flamegraph export.
// ---------------------------------------------------------------------------

TEST(FlameTest, NestedSpansGetSelfTime) {
  trace::TraceSink sink;
  sink.SetTrackName(0, "cpu 0");
  sink.Span(0, trace::Category::kTask, "task", 0, 100);
  sink.Span(0, trace::Category::kBufferMiss, "disk read", 10, 30);
  sink.Span(0, trace::Category::kRefinement, "refinement", 40, 45);
  const std::string folded = trace::ExportCollapsedStacks(sink);
  EXPECT_EQ(folded,
            "cpu 0;task 75\n"
            "cpu 0;task;disk read 20\n"
            "cpu 0;task;refinement 5\n");
}

TEST(FlameTest, InstantsAndZeroDurationSpansAreSkipped) {
  trace::TraceSink sink;
  sink.Instant(0, trace::Category::kSteal, "steal", 10);
  sink.Span(0, trace::Category::kTask, "task", 20, 20);
  EXPECT_EQ(trace::ExportCollapsedStacks(sink), "");
}

TEST(FlameTest, SequentialSpansDoNotNest) {
  trace::TraceSink sink;
  sink.SetTrackName(1, "cpu 1");
  sink.Span(1, trace::Category::kTask, "task", 0, 10);
  sink.Span(1, trace::Category::kTask, "task", 10, 25);
  const std::string folded = trace::ExportCollapsedStacks(sink);
  // Same stack, aggregated; lines are sorted lexicographically.
  EXPECT_EQ(folded, "cpu 1;task 25\n");
}

TEST(FlameTest, ExportIsDeterministicOnRealRun) {
  trace::TraceSink sink;
  const JoinResult result = RunTraced(&sink);
  (void)result;
  const std::string first = trace::ExportCollapsedStacks(sink);
  const std::string second = trace::ExportCollapsedStacks(sink);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Every line is "stack value" with a positive integer value.
  size_t begin = 0;
  while (begin < first.size()) {
    const size_t end = first.find('\n', begin);
    ASSERT_NE(end, std::string::npos);
    const std::string line = first.substr(begin, end - begin);
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::atoll(line.c_str() + space + 1), 0) << line;
    begin = end + 1;
  }
}

}  // namespace
}  // namespace psj
