// micro_obs — wall-clock cost of the observability layer (src/obs).
//
// Three measurements:
//   primitives   tight-loop ns/op of the registry hot path — sharded
//                counter Add, histogram Record, gauge Set — plus the cost
//                of one full Snapshot(), so regressions in the lock-free
//                cells show up directly
//   native join  the native multicore join over the bench workload with
//                metrics off vs on, interleaved, best-of-N per mode: the
//                enabled price of per-task timing + per-task registry
//                updates on a real engine
//   disabled     the shipping default (config.metrics == nullptr) cannot
//                be measured against an uninstrumented binary from here,
//                so it is bounded analytically: (updates that WOULD have
//                fired) x a conservative per-branch cost, relative to the
//                uninstrumented join time. The contract — enforced by the
//                exit code and the CI obs job — is that this bound stays
//                under 1%.
//
// Emits BENCH_obs.json (or the first non-flag argument) via JsonWriter.
// `--smoke` shrinks trial counts for CI; the pass/fail contract is
// unchanged.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "native/native_join.h"
#include "obs/metrics.h"
#include "util/json_writer.h"

namespace psj {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// ns/op of one registry primitive over `iters` calls.
template <typename Op>
double TimeOpNs(int64_t iters, Op op) {
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < iters; ++i) {
    op(i);
  }
  return SecondsSince(start) / static_cast<double>(iters) * 1e9;
}

double TimeJoinSeconds(const native::NativeJoinConfig& config,
                       native::NativeJoinResult* result) {
  const auto start = std::chrono::steady_clock::now();
  *result = NativeRTreeJoin(bench::GetWorkload().tree_r(),
                            bench::GetWorkload().tree_s(), config);
  return SecondsSince(start);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      path = argv[i];
    }
  }

  bench::PrintHeader(
      "micro_obs — observability layer wall-clock overhead",
      "registry primitives cost a handful of ns; metrics-on native join "
      "costs a few percent; the disabled path (null registry, branch-only) "
      "is bounded well under 1%");

  // -- Registry primitives --------------------------------------------------
  const int64_t prim_iters = smoke ? 200'000 : 2'000'000;
  constexpr int kShards = 8;
  obs::MetricsRegistry registry(kShards);
  const obs::CounterId counter = registry.DefineCounter("bench_ops_count");
  const obs::GaugeId gauge = registry.DefineGauge("bench_depth_count");
  const obs::HistogramId hist = registry.DefineHistogram("bench_lat_us");
  registry.Freeze();

  const double add_ns = TimeOpNs(prim_iters, [&](int64_t i) {
    registry.Add(static_cast<int>(i) & (kShards - 1), counter, 1);
  });
  const double record_ns = TimeOpNs(prim_iters, [&](int64_t i) {
    registry.Record(static_cast<int>(i) & (kShards - 1), hist, i & 1023);
  });
  const double set_ns = TimeOpNs(prim_iters, [&](int64_t i) {
    registry.Set(gauge, i);
  });
  const int64_t snap_iters = smoke ? 200 : 2'000;
  const double snapshot_us = TimeOpNs(snap_iters, [&](int64_t) {
                               obs::MetricsSnapshot s = registry.Snapshot();
                               (void)s;
                             }) *
                             1e-3;
  std::printf("registry primitives (%d shards, %lld iters):\n", kShards,
              static_cast<long long>(prim_iters));
  std::printf("  counter Add        %7.2f ns/op\n", add_ns);
  std::printf("  histogram Record   %7.2f ns/op\n", record_ns);
  std::printf("  gauge Set          %7.2f ns/op\n", set_ns);
  std::printf("  full Snapshot      %7.2f us\n", snapshot_us);

  // -- Native join, metrics off vs on ---------------------------------------
  bench::GetWorkload();  // Build/load outside the timed regions.
  native::NativeJoinConfig join_config;
  join_config.num_threads = std::min(4, native::HostHardwareConcurrency());

  const int trials = smoke ? 1 : 5;
  double off_best = 1e30;
  double on_best = 1e30;
  int64_t tasks = 0;
  int64_t workers = join_config.num_threads;
  // Interleave the two modes so drift (thermal, cache) hits both equally;
  // keep the per-mode minimum, the usual robust wall-clock estimator.
  for (int trial = 0; trial < trials; ++trial) {
    native::NativeJoinResult result;
    native::NativeJoinConfig off = join_config;
    off.metrics = nullptr;
    off_best = std::min(off_best, TimeJoinSeconds(off, &result));
    tasks = 0;
    for (const auto& w : result.per_worker) {
      tasks += w.tasks_executed;
    }

    obs::MetricsRegistry join_registry(join_config.num_threads);
    native::NativeJoinConfig on = join_config;
    on.metrics = &join_registry;
    on_best = std::min(on_best, TimeJoinSeconds(on, &result));
  }
  const double enabled_overhead_pct = (on_best / off_best - 1.0) * 100.0;

  // Disabled-path bound: with metrics null, every task pays exactly one
  // pointer-null branch (the per-worker drain flush adds one more per
  // worker). 2 ns per branch is conservative — a predicted-not-taken
  // branch on a register is well under a nanosecond.
  constexpr double kBranchCostSeconds = 2e-9;
  const double disabled_bound_pct = static_cast<double>(tasks + workers) *
                                    kBranchCostSeconds / off_best * 100.0;

  std::printf("native join (%d threads, best of %d):\n",
              join_config.num_threads, trials);
  std::printf("  metrics off         %8.3f s\n", off_best);
  std::printf("  metrics on          %8.3f s  (+%.2f%%)\n", on_best,
              enabled_overhead_pct);
  std::printf("  tasks               %8lld\n",
              static_cast<long long>(tasks));
  std::printf("  disabled-path bound %8.4f %% of the metrics-off join\n",
              disabled_bound_pct);
  const bool disabled_ok = disabled_bound_pct < 1.0;
  std::printf("  disabled < 1%% contract: %s\n",
              disabled_ok ? "PASS" : "FAIL");

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("micro_obs");
  json.Key("compiler");
  json.String(__VERSION__);
  json.Key("scale");
  json.Double(bench::BenchScale());
  json.Key("smoke");
  json.Bool(smoke);
  json.Key("registry_shards");
  json.Int(kShards);
  json.Key("counter_add_ns");
  json.Double(add_ns);
  json.Key("histogram_record_ns");
  json.Double(record_ns);
  json.Key("gauge_set_ns");
  json.Double(set_ns);
  json.Key("snapshot_us");
  json.Double(snapshot_us);
  json.Key("join_threads");
  json.Int(join_config.num_threads);
  json.Key("join_trials");
  json.Int(trials);
  json.Key("metrics_off_seconds");
  json.Double(off_best);
  json.Key("metrics_on_seconds");
  json.Double(on_best);
  json.Key("enabled_overhead_pct");
  json.Double(enabled_overhead_pct);
  json.Key("tasks_executed");
  json.Int(tasks);
  json.Key("disabled_branch_cost_ns_assumed");
  json.Double(kBranchCostSeconds * 1e9);
  json.Key("disabled_overhead_bound_pct");
  json.Double(disabled_bound_pct);
  json.Key("disabled_under_one_percent");
  json.Bool(disabled_ok);
  json.EndObject();

  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return disabled_ok ? 0 : 1;
}

}  // namespace
}  // namespace psj

int main(int argc, char** argv) { return psj::Main(argc, argv); }
