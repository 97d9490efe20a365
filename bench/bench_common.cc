#include "bench/bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report/figure_registry.h"
#include "util/check.h"
#include "util/json_writer.h"

namespace psj::bench {

double BenchScale() {
  const char* env = std::getenv("PSJ_BENCH_SCALE");
  if (env == nullptr) {
    return 1.0;
  }
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

const PaperWorkload& GetWorkload() {
  static const PaperWorkload* workload = [] {
    PaperWorkloadSpec spec;
    const double scale = BenchScale();
    if (scale != 1.0) {
      spec = spec.Scaled(scale);
    }
    std::fprintf(stderr,
                 "[bench] preparing workload (scale %.2f, %d + %d objects)"
                 "...\n",
                 scale, spec.streets.num_objects, spec.mixed.num_objects);
    const PaperWorkload* built = new PaperWorkload(spec);
    std::fprintf(stderr, "[bench] workload ready.\n");
    return built;
  }();
  return *workload;
}

void PrintHeader(const char* artifact, const char* expectation) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", artifact);
  std::printf("Brinkhoff/Kriegel/Seeger, \"Parallel Processing of Spatial "
              "Joins Using R-trees\", ICDE 1996\n");
  std::printf("Expected shape: %s\n", expectation);
  std::printf("(workload scale %.2f; absolute numbers are calibrated, the "
              "shape is the result)\n",
              BenchScale());
  std::printf("==============================================================="
              "=\n");
}

int RunFigureHarness(const char* figure, int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE.json]\n", argv[0]);
      return 2;
    }
  }
  const report::FigureSpec* spec = report::FindFigureSpec(figure);
  PSJ_CHECK(spec != nullptr) << "unknown figure '" << figure << "'";
  PrintHeader(spec->title, spec->expectation);
  report::RunOptions options;
  options.scale = BenchScale();
  const report::FigureDoc doc =
      report::RunFigure(*spec, GetWorkload(), options);
  std::printf("%s", doc.FormatText().c_str());
  if (!out_path.empty()) {
    JsonWriter writer;
    doc.WriteJson(writer);
    if (!writer.WriteFile(out_path)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace psj::bench
