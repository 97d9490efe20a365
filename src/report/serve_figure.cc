#include "report/serve_figure.h"

#include <algorithm>
#include <string>
#include <utility>

#include "native/native_join.h"
#include "serve/load_gen.h"
#include "util/check.h"

namespace psj::report {
namespace {

serve::LoadGenOptions BaseLoadOptions(const ServeSweepOptions& options) {
  serve::LoadGenOptions load;
  load.duration_micros = options.duration_micros;
  load.num_threads = options.num_threads;
  load.batch_window_micros = options.batch_window_micros;
  load.verify_every = options.verify_every;
  load.seed = options.seed;
  return load;
}

}  // namespace

FigureDoc RunServeThroughputFigure(const PaperWorkload& workload,
                                   const ServeSweepOptions& options) {
  PSJ_CHECK(!options.offered_qps.empty());

  bool verified = true;
  int64_t verified_queries = 0;
  auto note_run = [&](const serve::LoadGenResult& run) {
    verified_queries += run.verified_queries;
    if (run.verify_failures > 0) {
      verified = false;
    }
  };

  FigureDoc doc;
  doc.schema = std::string(kServeFigureSchema);
  doc.figure = "serve";
  doc.title = "Serving throughput: batched vs single-query execution";
  doc.x_label = "offered load (queries/s)";
  doc.y_label = "sustained QPS / latency us";
  doc.scale = options.scale;

  double peak_batched = 0.0;
  double peak_single = 0.0;
  for (const bool batching : {true, false}) {
    const std::string mode = batching ? "batched" : "single";
    FigureSeries sustained{mode + " sustained", "sustained_qps", {}};
    FigureSeries p50{mode + " p50", "p50_latency_us", {}};
    FigureSeries p95{mode + " p95", "p95_latency_us", {}};
    FigureSeries p99{mode + " p99", "p99_latency_us", {}};
    FigureSeries batch_avg{mode + " avg batch", "avg_batch_size", {}};
    for (const double qps : options.offered_qps) {
      serve::LoadGenOptions load = BaseLoadOptions(options);
      load.batching = batching;
      load.offered_qps = qps;
      const serve::LoadGenResult run =
          serve::RunOpenLoopLoad(workload.tree_r(), workload.tree_s(), load);
      note_run(run);
      sustained.points.push_back({qps, run.sustained_qps});
      p50.points.push_back({qps, static_cast<double>(run.p50_latency_us)});
      p95.points.push_back({qps, static_cast<double>(run.p95_latency_us)});
      p99.points.push_back({qps, static_cast<double>(run.p99_latency_us)});
      batch_avg.points.push_back({qps, run.stats.AvgBatchSize()});
      double& peak = batching ? peak_batched : peak_single;
      peak = std::max(peak, run.sustained_qps);
    }
    doc.series.push_back(std::move(sustained));
    doc.series.push_back(std::move(p50));
    doc.series.push_back(std::move(p95));
    doc.series.push_back(std::move(p99));
    doc.series.push_back(std::move(batch_avg));
  }

  // Batch-size ablation at the heaviest offered load.
  if (!options.ablation_max_batch.empty()) {
    FigureSeries ablation{"max_batch ablation", "sustained_qps", {}};
    const double qps = *std::max_element(options.offered_qps.begin(),
                                         options.offered_qps.end());
    for (const int max_batch : options.ablation_max_batch) {
      PSJ_CHECK_GT(max_batch, 0);
      serve::LoadGenOptions load = BaseLoadOptions(options);
      load.batching = true;
      load.offered_qps = qps;
      load.max_batch = static_cast<size_t>(max_batch);
      const serve::LoadGenResult run =
          serve::RunOpenLoopLoad(workload.tree_r(), workload.tree_s(), load);
      note_run(run);
      ablation.points.push_back(
          {static_cast<double>(max_batch), run.sustained_qps});
    }
    doc.series.push_back(std::move(ablation));
  }

  doc.scalars = {
      {"host_hardware_concurrency",
       static_cast<double>(native::HostHardwareConcurrency())},
      {"threads", static_cast<double>(options.num_threads)},
      {"duration_s", static_cast<double>(options.duration_micros) * 1e-6},
      {"batch_window_us", static_cast<double>(options.batch_window_micros)},
      {"sustained_qps_batched_peak", peak_batched},
      {"sustained_qps_single_peak", peak_single},
      {"batched_over_single",
       peak_single > 0.0 ? peak_batched / peak_single : 0.0},
      {"verified_queries", static_cast<double>(verified_queries)},
      {"verified", verified && verified_queries > 0 ? 1.0 : 0.0},
  };
  return doc;
}

}  // namespace psj::report
