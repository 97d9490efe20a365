#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "join/node_match.h"
#include "trace/chrome_trace.h"
#include "trace/trace_sink.h"
#include "util/string_util.h"

namespace psj {

PaperWorkloadSpec PaperWorkloadSpec::Scaled(double factor) const {
  PaperWorkloadSpec scaled = *this;
  scaled.streets.num_objects = std::max(
      1, static_cast<int>(std::lround(streets.num_objects * factor)));
  scaled.mixed.num_objects = std::max(
      1, static_cast<int>(std::lround(mixed.num_objects * factor)));
  // Keep per-object sizes constant but reduce the number of centers so the
  // density structure stays comparable.
  scaled.num_centers =
      std::max(10, static_cast<int>(std::lround(num_centers * factor)));
  return scaled;
}

namespace {

Geography MakeGeography(const PaperWorkloadSpec& spec) {
  return Geography::Generate(spec.geography_seed, spec.num_centers);
}

}  // namespace

PaperWorkload::PaperWorkload(const PaperWorkloadSpec& spec)
    : store_r_(GenerateStreetsMap(MakeGeography(spec), spec.streets)),
      store_s_(GenerateMixedMap(MakeGeography(spec), spec.mixed)),
      tree_r_(BuildTreeFromObjects(1, store_r_.objects(), spec.build)),
      tree_s_(BuildTreeFromObjects(2, store_s_.objects(), spec.build)) {}

int64_t PaperWorkload::CountRootTaskPairs() const {
  const RTreeNode& root_r = tree_r_.node(tree_r_.root_page());
  const RTreeNode& root_s = tree_s_.node(tree_s_.root_page());
  return static_cast<int64_t>(MatchNodeEntries(root_r, root_s).size());
}

StatusOr<JoinResult> PaperWorkload::RunJoin(
    const ParallelJoinConfig& config) const {
  ParallelSpatialJoin join(&tree_r_, &tree_s_, &store_r_, &store_s_);
  return join.Run(config);
}

std::vector<StatusOr<JoinResult>> PaperWorkload::RunJoins(
    const std::vector<ParallelJoinConfig>& configs, int num_threads) const {
  const ParallelSpatialJoin join(&tree_r_, &tree_s_, &store_r_, &store_s_);
  return ExperimentDriver(num_threads).RunAll(join, configs);
}

TieBreakInvarianceReport VerifyTieBreakInvariance(
    const PaperWorkload& workload, ParallelJoinConfig config,
    const std::vector<uint64_t>& seeds) {
  TieBreakInvarianceReport report;
  report.results_identical = true;
  report.traces_identical = true;

  // The identity run is the reference every seeded permutation must match.
  const auto run_one = [&](const sim::TieBreak& tiebreak)
      -> StatusOr<std::pair<JoinResult, std::string>> {
    trace::TraceSink sink;
    ParallelJoinConfig run_config = config;
    run_config.tiebreak = tiebreak;
    run_config.trace = &sink;
    auto result = workload.RunJoin(run_config);
    if (!result.ok()) {
      return result.status();
    }
    return std::make_pair(std::move(*result), trace::ExportChromeTrace(sink));
  };

  auto reference = run_one(sim::TieBreak::Id());
  report.num_runs = 1;
  if (!reference.ok()) {
    report.results_identical = false;
    report.divergence = StringPrintf("identity run failed: %s",
                                     reference.status().message().c_str());
    return report;
  }
  for (const uint64_t seed : seeds) {
    auto seeded = run_one(sim::TieBreak::Seeded(seed));
    ++report.num_runs;
    if (!seeded.ok()) {
      report.results_identical = false;
      report.divergence = StringPrintf(
          "seed %llu failed: %s", static_cast<unsigned long long>(seed),
          seeded.status().message().c_str());
      return report;
    }
    if (!(seeded->first == reference->first)) {
      report.results_identical = false;
      if (report.divergence.empty()) {
        report.divergence = StringPrintf(
            "seed %llu: JoinResult differs from the identity tie-break",
            static_cast<unsigned long long>(seed));
      }
    }
    if (seeded->second != reference->second) {
      report.traces_identical = false;
      if (report.divergence.empty()) {
        report.divergence = StringPrintf(
            "seed %llu: exported trace differs from the identity tie-break",
            static_cast<unsigned long long>(seed));
      }
    }
  }
  return report;
}

ExperimentDriver::ExperimentDriver(int num_threads)
    : num_threads_(num_threads > 0 ? num_threads : DefaultNumThreads()) {}

int ExperimentDriver::DefaultNumThreads() {
  const char* env = std::getenv("PSJ_EXPERIMENT_THREADS");
  if (env != nullptr) {
    const int n = std::atoi(env);
    if (n > 0) {
      return n;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<StatusOr<JoinResult>> ExperimentDriver::RunAll(
    const ParallelSpatialJoin& join,
    const std::vector<ParallelJoinConfig>& configs) const {
  std::vector<StatusOr<JoinResult>> results(
      configs.size(),
      StatusOr<JoinResult>(Status::Internal("experiment did not run")));
  // A TraceSink records without locks and belongs to exactly one run. One
  // sink per config is fine on the pool; two configs sharing a sink would
  // interleave their events, so reject the duplicates deterministically.
  std::vector<char> skip(configs.size(), 0);
  for (size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].trace == nullptr) {
      continue;
    }
    for (size_t j = 0; j < i; ++j) {
      if (configs[j].trace == configs[i].trace) {
        results[i] = Status::InvalidArgument(
            "two sweep configs share one TraceSink; give each traced "
            "config its own sink");
        skip[i] = 1;
        break;
      }
    }
  }
  std::atomic<size_t> next{0};
  const auto worker = [&join, &configs, &results, &next, &skip] {
    for (;;) {
      // order: relaxed — the cursor only partitions the config index space;
      // each results[i] slot is written by exactly one worker and read by
      // the caller after join().
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) {
        return;
      }
      if (skip[i] != 0) {
        continue;
      }
      results[i] = join.Run(configs[i]);
    }
  };
  const int helpers =
      std::min(num_threads_, static_cast<int>(configs.size())) - 1;
  std::vector<std::thread> pool;
  pool.reserve(helpers > 0 ? static_cast<size_t>(helpers) : 0);
  for (int i = 0; i < helpers; ++i) {
    pool.emplace_back(worker);
  }
  worker();  // The calling thread participates in the pool.
  for (std::thread& t : pool) {
    t.join();
  }
  return results;
}

std::string PaperWorkload::DescribeTrees() const {
  const RTreeShapeStats a = tree_r_.ComputeShapeStats();
  const RTreeShapeStats b = tree_s_.ComputeShapeStats();
  std::string out;
  out += StringPrintf("%-28s %12s %12s\n", "", "tree1", "tree2");
  out += StringPrintf("%-28s %12d %12d\n", "height", a.height, b.height);
  out += StringPrintf("%-28s %12s %12s\n", "number of data entries",
                      FormatWithCommas(a.num_data_entries).c_str(),
                      FormatWithCommas(b.num_data_entries).c_str());
  out += StringPrintf("%-28s %12s %12s\n", "number of data pages",
                      FormatWithCommas(a.num_data_pages).c_str(),
                      FormatWithCommas(b.num_data_pages).c_str());
  out += StringPrintf("%-28s %12s %12s\n", "number of directory pages",
                      FormatWithCommas(a.num_dir_pages).c_str(),
                      FormatWithCommas(b.num_dir_pages).c_str());
  out += StringPrintf("%-28s %12.0f%% %11.0f%%\n", "avg. data page fill",
                      a.avg_data_fill * 100.0, b.avg_data_fill * 100.0);
  out += StringPrintf("%-28s %25s\n", "m (number of tasks)",
                      FormatWithCommas(CountRootTaskPairs()).c_str());
  return out;
}

}  // namespace psj
