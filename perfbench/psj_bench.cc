// psj_bench: one workload of the end-to-end benchmark per process.
//
//   psj_bench --workload=NAME --seed=S --seconds=T [--trace=FILE]
//             [--scale=F] --out=FILE
//
// Builds the map realizations of seed S (set-up), computes their oracles,
// runs the workload for T seconds and writes every metric, with its unit, the
// operation counts, the failures and the host to FILE as JSON. With
// --trace, the workload records spans around its calls into each layer,
// then the layer suite replays the inputs through the public functions;
// the spans go to the trace FILE in Chrome's format. run.py builds this
// binary and drives it. --scale (default 1, the paper's full maps) exists
// for run.py's smoke test.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "geo/node_scan.h"
#include "geo/rect_batch.h"
#include "native/native_join.h"
#include "perfbench/bench_util.h"
#include "perfbench/layers.h"
#include "perfbench/serve_load.h"
#include "perfbench/workloads.h"
#include "trace/chrome_trace.h"
#include "util/json_writer.h"

#ifndef PSJ_BENCH_CXX_FLAGS
#define PSJ_BENCH_CXX_FLAGS "unknown"
#endif

namespace psj::perfbench {
namespace {

const char* const kWorkloads[] = {"join-tiger", "join-partition",
                                  "serve-hotspot", "serve-uniform",
                                  "sim-fig10"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  double scale = kMapScale;
  std::string trace;
  std::string out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.substr(0, 2) != "--" || eq == std::string_view::npos) {
      return false;
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    char* end = nullptr;
    if (key == "workload") {
      args->workload = value;
    } else if (key == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0' && value[0] != '-';
    } else if (key == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->seconds > 0.0) ||
          args->seconds > 600.0) {
        return false;
      }
    } else if (key == "scale") {
      args->scale = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args->scale >= 0.001) ||
          args->scale > 1.0) {
        return false;
      }
    } else if (key == "trace") {
      args->trace = value;
    } else if (key == "out") {
      args->out = value;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const char* name : kWorkloads) {
    known = known || args->workload == name;
  }
  return known && have_seed && args->seconds > 0.0 && !args->out.empty();
}

void WriteMetrics(const std::vector<Report::Metric>& metrics,
                  JsonWriter* json) {
  json->BeginObject();
  for (const Report::Metric& metric : metrics) {
    json->Key(metric.name);
    json->BeginObject();
    json->Key("value");
    if (std::isfinite(metric.value)) {
      json->DoublePrecise(metric.value);
    } else {
      json->String(std::isnan(metric.value) ? "nan" : "inf");
    }
    json->Key("unit");
    json->String(metric.unit);
    json->EndObject();
  }
  json->EndObject();
}

bool WriteResult(const Args& args, const Report& report) {
  JsonWriter json;
  json.BeginObject();
  json.Key("workload");
  json.String(args.workload);
  json.Key("seed");
  json.Int(static_cast<int64_t>(args.seed));
  json.Key("seconds");
  json.DoublePrecise(args.seconds);
  json.Key("scale");
  json.DoublePrecise(args.scale);
  json.Key("traced");
  json.Bool(!args.trace.empty());
  json.Key("attempted");
  json.Int(report.attempted);
  json.Key("failed");
  json.Int(report.failed);
  json.Key("errors");
  json.BeginArray();
  for (const std::string& error : report.errors) {
    json.String(error);
  }
  json.EndArray();
  json.Key("host");
  json.BeginObject();
  json.Key("nproc");
  json.Int(native::HostHardwareConcurrency());
  json.Key("node_scan_isa");
  json.String(NodeScanIsa());
  json.Key("rect_batch_simd");
  json.String(RectBatchSimdLevel());
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("cxx_flags");
  json.String(PSJ_BENCH_CXX_FLAGS);
  json.EndObject();
  json.Key("end_to_end");
  WriteMetrics(report.end_to_end, &json);
  json.Key("per_layer");
  WriteMetrics(report.per_layer, &json);
  json.EndObject();
  return json.WriteFile(args.out);
}

void PrintReport(const Args& args, const Report& report) {
  std::printf("psj_bench %s seed=%llu seconds=%g%s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace.empty() ? "" : " (traced)");
  for (const auto* metrics : {&report.end_to_end, &report.per_layer}) {
    for (const Report::Metric& metric : *metrics) {
      std::printf("  %-34s %16.6g %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
  std::printf("  attempted %lld, failed %lld\n",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  for (const std::string& error : report.errors) {
    std::printf("  FAILED: %s\n", error.c_str());
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: psj_bench --workload=NAME --seed=S --seconds=T "
                 "[--trace=FILE] [--scale=F] --out=FILE\nworkloads:");
    for (const char* name : kWorkloads) {
      std::fprintf(stderr, " %s", name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // Large per-call buffers stay mapped between calls: with glibc's dynamic
  // mmap threshold some processes re-mapped and re-faulted them on every
  // join (about 2,800 minor faults per PartitionSweepJoin call, 25% slower)
  // and others did not, depending on allocation history.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  trace::TraceSink sink;
  const Tracer tracer(args.trace.empty() ? nullptr : &sink, NowNs());
  Report report;
  const std::string& w = args.workload;

  // Set-up: generation, insertion and Seal() of both maps of every
  // realization, with no cache, all at once. Every workload sets up the
  // same way, so setup_s means the same on each; the partition join reads
  // the maps' objects and leaves the trees to the oracle.
  std::vector<MapSpec> specs;
  for (int k = 0; k < kRealizations; ++k) {
    specs.push_back(BenchSpec(args.seed, k, args.scale));
  }
  const int64_t setup_begin = NowNs();
  std::vector<std::unique_ptr<Maps>> built = SetUpMaps(specs);
  tracer.Span(kMainTrack, trace::Category::kTask, "set-up", setup_begin,
              NowNs(), kRealizations);
  std::vector<double> setup_s;
  for (const std::unique_ptr<Maps>& maps : built) {
    setup_s.push_back(maps->times.wall_s);
  }
  report.EndToEnd("setup_s", Median(setup_s), "s");
  report.EndToEnd("setup_rss_mb", PeakRssMb(), "MiB");
  std::vector<Realization> inputs;
  inputs.reserve(built.size());
  for (std::unique_ptr<Maps>& maps : built) {
    inputs.emplace_back(std::move(maps));
  }

  const QueryMix mix = w == "serve-hotspot" ? HotspotMix() : UniformMix();
  RungOutcome rung;
  const bool serving = w == "serve-hotspot" || w == "serve-uniform";
  if (w == "join-tiger") {
    RunJoinWorkload(inputs, args.seconds, tracer, &report);
  } else if (w == "join-partition") {
    RunPartitionWorkload(inputs, args.seconds, tracer, &report);
  } else if (serving) {
    rung = RunServeWorkload(mix, *inputs.front().maps, inputs.front().oracle,
                            args.seed, args.seconds, tracer, &report);
  } else {
    RunSimWorkload(inputs, args.seconds, tracer, &report);
  }

  if (tracer.on()) {
    RunLayerSuite(args.seed, args.seconds, inputs.front(), mix,
                  serving ? &rung : nullptr, tracer, &report);
    if (!WriteChromeTrace(sink, args.trace)) {
      std::fprintf(stderr, "psj_bench: cannot write %s\n", args.trace.c_str());
      return 1;
    }
  }
  PrintReport(args, report);
  if (!WriteResult(args, report)) {
    std::fprintf(stderr, "psj_bench: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace psj::perfbench

int main(int argc, char** argv) { return psj::perfbench::Main(argc, argv); }
