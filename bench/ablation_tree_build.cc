// Ablation (beyond the paper): insertion-built R*-trees (what the paper
// used) vs. STR bulk-loaded trees — tree shape and parallel join cost.
#include <cstdio>

#include "bench/bench_common.h"
#include "rtree/rstar_tree.h"
#include "util/string_util.h"

namespace psj {
namespace {

void RunJoin(const char* label, const PaperWorkload& workload) {
  ParallelJoinConfig config = ParallelJoinConfig::Gd();
  config.reassignment = ReassignmentLevel::kAllLevels;
  config.num_processors = 8;
  config.num_disks = 8;
  config.total_buffer_pages = 800;
  auto result = workload.RunJoin(config);
  if (!result.ok()) {
    std::printf("%-12s ERROR %s\n", label,
                result.status().ToString().c_str());
    return;
  }
  const JoinStats& stats = result->stats;
  std::printf("%-12s %12s %14s %12s %12s\n", label,
              FormatMicrosAsSeconds(stats.response_time).c_str(),
              FormatWithCommas(stats.total_disk_accesses).c_str(),
              FormatWithCommas(stats.total_candidates).c_str(),
              FormatWithCommas(stats.num_tasks).c_str());
}

}  // namespace
}  // namespace psj

int main() {
  using namespace psj;
  bench::PrintHeader(
      "Ablation: insertion-built R*-trees vs. STR bulk loading "
      "(gd, n = d = 8, buffer 800)",
      "identical candidate counts; STR trees pack tighter (fewer pages), "
      "trading a different page-access pattern");

  const PaperWorkload& insertion = bench::GetWorkload();
  std::printf("insertion-built trees:\n%s\n",
              insertion.DescribeTrees().c_str());

  PaperWorkloadSpec str_spec;
  const double scale = bench::BenchScale();
  if (scale != 1.0) {
    str_spec = str_spec.Scaled(scale);
  }
  str_spec.build = TreeBuildMethod::kStr;
  const PaperWorkload str_workload(str_spec);
  std::printf("STR bulk-loaded trees:\n%s\n",
              str_workload.DescribeTrees().c_str());

  std::printf("%-12s %12s %14s %12s %12s\n", "build", "resp (s)",
              "disk accesses", "candidates", "tasks");
  RunJoin("insertion", insertion);
  RunJoin("str", str_workload);
  return 0;
}
