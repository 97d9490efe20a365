// Serving throughput sweep: the batched concurrent query service
// (src/serve) under open-loop load over the paper workload's sealed trees —
// batched vs one-query-at-a-time execution across offered arrival rates,
// plus the batch-size ablation.
//
// Wall-clock like the native sweep, so the JSON document carries the
// "psj-serve-fig-v1" schema and is never golden-compared. Sampled query
// results ARE host-independent: every run oracle-checks a sample of its
// answers against WindowQuery / KnnQuery / the sequential join, and the
// harness aborts on any mismatch.
//
//   --qps=1000,2000,...  offered loads to sweep (default 16k..512k)
//   --threads=N          service worker threads (default 1)
//   --batch-window=US    admission window in microseconds (default 200)
//   --duration=US        run length per cell in microseconds (default 1s)
//   --smoke              tiny sweep for CI (two loads, 200 ms cells)
//   --out=FILE.json      write the schema-versioned document
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "report/serve_figure.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace {

std::vector<double> ParseQpsList(const char* text) {
  std::vector<double> qps;
  for (const char* p = text; *p != '\0';) {
    char* end = nullptr;
    const double value = std::strtod(p, &end);
    PSJ_CHECK(end != p && value > 0) << "bad --qps list: " << text;
    qps.push_back(value);
    p = *end == ',' ? end + 1 : end;
  }
  PSJ_CHECK(!qps.empty()) << "empty --qps list";
  return qps;
}

}  // namespace

int main(int argc, char** argv) {
  psj::report::ServeSweepOptions options;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--qps=", 6) == 0) {
      options.offered_qps = ParseQpsList(argv[i] + 6);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      options.num_threads = std::atoi(argv[i] + 10);
      PSJ_CHECK_GT(options.num_threads, 0);
    } else if (std::strncmp(argv[i], "--batch-window=", 15) == 0) {
      options.batch_window_micros = std::atoll(argv[i] + 15);
    } else if (std::strncmp(argv[i], "--duration=", 11) == 0) {
      options.duration_micros = std::atoll(argv[i] + 11);
      PSJ_CHECK_GT(options.duration_micros, 0);
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      options.offered_qps = {500, 4000};
      options.duration_micros = 200'000;
      options.ablation_max_batch = {1, 64};
      options.verify_every = 23;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--qps=1000,2000] [--threads=N] "
                   "[--batch-window=US] [--duration=US] [--smoke] "
                   "[--out=FILE.json]\n",
                   argv[0]);
      return 2;
    }
  }

  psj::bench::PrintHeader(
      "Serving throughput: batched vs single-query execution",
      psj::report::kServeExpectation);
  options.scale = psj::bench::BenchScale();
  const psj::report::FigureDoc doc = psj::report::RunServeThroughputFigure(
      psj::bench::GetWorkload(), options);
  std::printf("%s", doc.FormatText().c_str());

  const double* verified = doc.FindScalar("verified");
  PSJ_CHECK(verified != nullptr && *verified == 1.0)
      << "sampled serving results diverged from the single-query oracle";

  if (!out_path.empty()) {
    psj::JsonWriter writer;
    doc.WriteJson(writer);
    if (!writer.WriteFile(out_path)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());
  }
  return 0;
}
