#include "trace/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/json_writer.h"

namespace psj::trace {
namespace {

void EmitThreadName(JsonWriter& json, int32_t track,
                    const std::string& name) {
  json.BeginObject();
  json.Key("name");
  json.String("thread_name");
  json.Key("ph");
  json.String("M");
  json.Key("pid");
  json.Int(0);
  json.Key("tid");
  json.Int(track);
  json.Key("args");
  json.BeginObject();
  json.Key("name");
  json.String(name);
  json.EndObject();
  json.EndObject();
}

void EmitEvent(JsonWriter& json, const TraceEvent& event) {
  json.BeginObject();
  json.Key("name");
  json.String(event.name);
  json.Key("cat");
  json.String(ToString(event.category));
  json.Key("ph");
  json.String(event.start == event.end ? "i" : "X");
  json.Key("ts");
  json.Int(event.start);
  if (event.start != event.end) {
    json.Key("dur");
    json.Int(event.end - event.start);
  } else {
    json.Key("s");
    json.String("t");  // Thread-scoped instant.
  }
  json.Key("pid");
  json.Int(0);
  json.Key("tid");
  json.Int(event.track);
  json.Key("args");
  json.BeginObject();
  json.Key("a0");
  json.Int(event.arg0);
  json.Key("a1");
  json.Int(event.arg1);
  json.EndObject();
  json.EndObject();
}

}  // namespace

void WriteHistogramJson(JsonWriter& json, const Histogram& histogram) {
  // The shape is identical for empty and populated histograms (count 0,
  // zero stats, empty bucket array) so downstream parsers never need a
  // presence check per field.
  json.BeginObject();
  json.Key("count");
  json.Int(histogram.total_count());
  json.Key("sum");
  json.Int(histogram.sum());
  json.Key("min");
  json.Int(histogram.min());
  json.Key("max");
  json.Int(histogram.max());
  json.Key("p50");
  json.Int(histogram.ValueAtQuantile(0.50));
  json.Key("p95");
  json.Int(histogram.ValueAtQuantile(0.95));
  json.Key("p99");
  json.Int(histogram.ValueAtQuantile(0.99));
  json.Key("buckets");
  json.BeginArray();
  const int highest = histogram.HighestBucket();
  for (int i = 0; i <= highest; ++i) {
    json.BeginObject();
    json.Key("ge");
    json.Int(Histogram::BucketLowerBound(i));
    json.Key("n");
    json.Int(histogram.bucket_count(i));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string ExportChromeTrace(const TraceSink& sink) {
  // Sort by full event content, not just start time: record order at equal
  // starts is dispatch order, which the scheduler tie-break may permute
  // between otherwise identical runs. With the content key the export is a
  // pure function of the event *multiset*, so byte-identical traces across
  // tie-break seeds, and per-track timestamps stay monotone even though
  // nested spans are recorded child-first.
  const std::vector<TraceEvent>& events = sink.events();
  std::vector<size_t> order(events.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto key = [](const TraceEvent& e) {
    return std::make_tuple(e.start, e.track, e.end,
                           static_cast<int>(e.category),
                           std::string_view(e.name == nullptr ? "" : e.name),
                           e.arg0, e.arg1);
  };
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return key(events[a]) < key(events[b]);
  });

  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  for (const int32_t track : sink.Tracks()) {
    EmitThreadName(json, track, sink.TrackName(track));
  }
  for (const size_t index : order) {
    EmitEvent(json, events[index]);
  }
  json.EndArray();
  json.Key("psj");
  json.BeginObject();
  // Always empty (the sink keeps no counters); the key stays part of the
  // export's schema, which the pinned trace fingerprint covers.
  json.Key("counters");
  json.BeginObject();
  json.EndObject();
  json.Key("histograms");
  json.BeginObject();
  for (const std::string& name : sink.histogram_names()) {
    json.Key(name);
    WriteHistogramJson(json, *sink.FindHistogram(name));
  }
  json.EndObject();
  json.EndObject();
  json.EndObject();
  return json.str();
}

bool WriteChromeTrace(const TraceSink& sink, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string out = ExportChromeTrace(sink);
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace psj::trace
