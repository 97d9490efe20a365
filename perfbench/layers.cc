#include "perfbench/layers.h"

#include <sys/resource.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/task_builder.h"
#include "geo/node_scan.h"
#include "join/node_match.h"
#include "join/sequential_join.h"
#include "native/partition_join.h"
#include "obs/metrics.h"
#include "perfbench/workloads.h"
#include "serve/batch_descent.h"

namespace psj::perfbench {
namespace {

constexpr double kNsPerMs = 1e6;

/// Wall time of one call of `fn`, traced as a span named `name`.
template <typename Fn>
double TimedMs(const Tracer& tracer, const char* name, Fn&& fn) {
  const int64_t begin = NowNs();
  fn();
  const int64_t end = NowNs();
  tracer.Span(kMainTrack, trace::Category::kTask, name, begin, end);
  return static_cast<double>(end - begin) / kNsPerMs;
}

/// Median over `reps` traced calls of `fn`.
template <typename Fn>
double MedianMs(int reps, const Tracer& tracer, const char* name, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    samples.push_back(TimedMs(tracer, name, fn));
  }
  return Median(std::move(samples));
}

// ---- data, rtree ----------------------------------------------------------

/// Where the realization's own set-up went.
void ReportSetup(const Maps& maps, Report* report) {
  const SetupTimes& times = maps.times;
  report->Layer("data.generate_s", times.generate_s, "s");
  report->Layer("rtree.build_s", times.build_s - times.seal_ms * 1e-3, "s");
  report->Layer("rtree.seal_ms", times.seal_ms, "ms");
  report->Layer("rtree.pages",
                static_cast<double>(maps.tree_r.num_pages() +
                                    maps.tree_s.num_pages()),
                "count");
}

/// Single-query window and k-NN descents over the mix's own queries.
void MeasureTreeQueries(const Maps& maps, const QueryMix& mix, uint64_t seed,
                        const Tracer& tracer, Report* report) {
  constexpr size_t kWindows = 4000;
  constexpr size_t kKnn = 1000;
  QueryGen gen(mix, MapDomain(maps), seed + 101);
  std::vector<serve::QueryDescriptor> windows;
  std::vector<serve::QueryDescriptor> knn;
  while (windows.size() < kWindows || knn.size() < kKnn) {
    serve::QueryDescriptor d = gen.Next();
    if (d.type == serve::QueryType::kWindow && windows.size() < kWindows) {
      windows.push_back(d);
    } else if (d.type == serve::QueryType::kKnn && knn.size() < kKnn) {
      knn.push_back(d);
    }
  }
  const auto tree = [&](const serve::QueryDescriptor& d) -> const RStarTree& {
    return d.target == serve::TreeTarget::kTreeR ? maps.tree_r : maps.tree_s;
  };
  size_t sink = 0;
  const double window_ms = TimedMs(tracer, "RStarTree::WindowQuery", [&] {
    for (const serve::QueryDescriptor& d : windows) {
      sink += tree(d).WindowQuery(d.rect).size();
    }
  });
  const double knn_ms = TimedMs(tracer, "RStarTree::KnnQuery", [&] {
    for (const serve::QueryDescriptor& d : knn) {
      sink += tree(d).KnnQuery(d.point, d.k).size();
    }
  });
  report->Layer("rtree.window_us", window_ms * 1e3 / kWindows, "us");
  report->Layer("rtree.knn_us", knn_ms * 1e3 / kKnn, "us");
  report->Layer("rtree.window_hits", static_cast<double>(sink), "count");
}

// ---- core, join, geo --------------------------------------------------------

struct Replay {
  std::vector<NodePair> node_pairs;  // Every matched pair, in replay order.
  double dir_ms = 0.0;
  double leaf_ms = 0.0;
  int64_t pairs_tested = 0;
  int64_t emitted = 0;
  int64_t candidates = 0;
};

/// Single-threaded descent of every task with MatchNodePages, each call
/// timed: the native join's work without its threads.
Replay ReplayTasks(const Maps& maps, const JoinTaskSet& tasks,
                   const Tracer& tracer) {
  Replay replay;
  NodeMatchScratch scratch;
  const NodeMatchOptions options;
  std::vector<NodePair> stack(tasks.tasks.rbegin(), tasks.tasks.rend());
  const int64_t begin = NowNs();
  while (!stack.empty()) {
    const NodePair pair = stack.back();
    stack.pop_back();
    replay.node_pairs.push_back(pair);
    NodeMatchCounts counts;
    const int64_t t0 = NowNs();
    const auto matches = MatchNodePages(maps.tree_r, pair.page_r, maps.tree_s,
                                        pair.page_s, options, &counts,
                                        &scratch);
    const double ms = static_cast<double>(NowNs() - t0) / kNsPerMs;
    replay.pairs_tested += static_cast<int64_t>(counts.pairs_tested);
    replay.emitted += static_cast<int64_t>(matches.size());
    if (pair.level == 0) {
      replay.leaf_ms += ms;
      replay.candidates += static_cast<int64_t>(matches.size());
      continue;
    }
    replay.dir_ms += ms;
    const RTreeNode& node_r = maps.tree_r.node(pair.page_r);
    const RTreeNode& node_s = maps.tree_s.node(pair.page_s);
    for (auto it = matches.rbegin(); it != matches.rend(); ++it) {
      stack.push_back(NodePair{node_r.entries[it->first].child_page(),
                               node_s.entries[it->second].child_page(),
                               static_cast<int16_t>(pair.level - 1)});
    }
  }
  tracer.Span(kMainTrack, trace::Category::kTask, "MatchNodePages replay",
              begin, NowNs(), static_cast<int64_t>(replay.node_pairs.size()));
  return replay;
}

/// The search-space restriction of every replayed node pair: both nodes'
/// SoA images scanned against the intersection of their MBRs.
void MeasureRestriction(const Maps& maps, const std::vector<NodePair>& pairs,
                        const Tracer& tracer, Report* report) {
  const NodeSoACache& soa_r = *maps.tree_r.soa();
  const NodeSoACache& soa_s = *maps.tree_s.soa();
  std::vector<uint32_t> ids;
  int64_t scanned = 0;
  int64_t kept = 0;
  const double ms = TimedMs(tracer, "ScanIntersecting", [&] {
    for (const NodePair& pair : pairs) {
      const NodeSoAView r = soa_r.view(pair.page_r);
      const NodeSoAView s = soa_s.view(pair.page_s);
      const Rect clip = r.mbr.Intersection(s.mbr);
      ScanIntersecting(r.rects, clip, &ids);
      kept += static_cast<int64_t>(ids.size());
      ScanIntersecting(s.rects, clip, &ids);
      kept += static_cast<int64_t>(ids.size());
      scanned += static_cast<int64_t>(r.size() + s.size());
    }
  });
  report->Layer("geo.restrict_ns_per_entry",
                ms * kNsPerMs / static_cast<double>(scanned), "ns");
  report->Layer("geo.restrict_keep_frac",
                static_cast<double>(kept) / static_cast<double>(scanned),
                "ratio");
}

/// Minor page faults of this process so far.
int64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// The native engines, interleaved round by round so drift in outside load
/// hits all of them alike. Each round also times the 1-thread join's work
/// without its work pool: BuildJoinTasks for one thread plus the
/// MatchNodePages replay of those tasks.
void MeasureEngines(const Maps& maps, const Oracle& oracle,
                    int64_t replay_node_pairs, const Tracer& tracer,
                    Report* report) {
  constexpr int kRounds = 21;
  const NodeMatchOptions options;
  const std::vector<RTreeEntry> entries_r = EntriesOf(maps.store_r);
  const std::vector<RTreeEntry> entries_s = EntriesOf(maps.store_s);
  native::NativeJoinConfig one = BenchJoinConfig();
  one.num_threads = 1;
  native::PartitionJoinConfig partition_one = BenchPartitionConfig();
  partition_one.num_threads = 1;

  std::vector<double> join_1t, join_4t, join_obs, part_1t, part_4t;
  std::vector<double> attributed, overhead_ms;
  std::vector<double> busy_min, busy_mean;
  int64_t steals = 0;
  int64_t steal_attempts = 0;
  int64_t mismatches = 0;
  int64_t node_pairs_4t = 0;
  int64_t tiles = 0;
  int64_t partition_faults = 0;
  const auto check = [&](const native::NativeJoinResult& result) {
    ++report->attempted;
    if (result.candidates.size() != oracle.candidates.size()) {
      ++mismatches;
    }
  };
  for (int round = 0; round < kRounds; ++round) {
    native::NativeJoinResult result;
    join_1t.push_back(TimedMs(tracer, "NativeRTreeJoin 1t", [&] {
      result = native::NativeRTreeJoin(maps.tree_r, maps.tree_s, one);
    }));
    check(result);
    const double work_ms = TimedMs(tracer, "BuildJoinTasks 1t + replay", [&] {
      (void)ReplayTasks(maps,
                        BuildJoinTasks(maps.tree_r, maps.tree_s, 1, 3.0,
                                       options),
                        Tracer(nullptr, 0));
    });
    attributed.push_back(work_ms / join_1t.back());
    overhead_ms.push_back(join_1t.back() - work_ms);

    join_4t.push_back(TimedMs(tracer, "NativeRTreeJoin", [&] {
      result = native::NativeRTreeJoin(maps.tree_r, maps.tree_s,
                                       BenchJoinConfig());
    }));
    check(result);
    steals += result.TotalSteals();
    for (const native::NativeWorkerStats& w : result.per_worker) {
      steal_attempts += w.steal_attempts;
    }
    node_pairs_4t = result.node_pairs_processed;

    obs::MetricsRegistry registry(kThreads);
    native::NativeJoinConfig observed = BenchJoinConfig();
    observed.metrics = &registry;
    join_obs.push_back(TimedMs(tracer, "NativeRTreeJoin +registry", [&] {
      result = native::NativeRTreeJoin(maps.tree_r, maps.tree_s, observed);
    }));
    check(result);
    double lowest = 1.0;
    double sum = 0.0;
    for (const native::NativeWorkerStats& w : result.per_worker) {
      const double frac =
          static_cast<double>(w.busy_us) / (result.wall_ms * 1e3);
      lowest = std::min(lowest, frac);
      sum += frac;
    }
    busy_min.push_back(lowest);
    busy_mean.push_back(sum / static_cast<double>(result.per_worker.size()));

    part_1t.push_back(TimedMs(tracer, "PartitionSweepJoin 1t", [&] {
      result = native::PartitionSweepJoin(entries_r, entries_s, partition_one);
    }));
    check(result);
    const int64_t faults = MinorFaults();
    part_4t.push_back(TimedMs(tracer, "PartitionSweepJoin", [&] {
      result = native::PartitionSweepJoin(entries_r, entries_s,
                                          BenchPartitionConfig());
    }));
    partition_faults += MinorFaults() - faults;
    check(result);
    tiles = result.num_tasks;
  }
  report->Fail(mismatches, "engine candidate count in the layer suite");
  report->Fail(replay_node_pairs != node_pairs_4t,
               "MatchNodePages replay node-pair count");
  const double join_1t_ms = Median(join_1t);
  const double join_4t_ms = Median(join_4t);

  report->Layer("native.join_ms_1t", join_1t_ms, "ms");
  report->Layer("native.join_ms_4t", join_4t_ms, "ms");
  report->Layer("native.speedup", join_1t_ms / join_4t_ms, "ratio");
  report->Layer("native.steals", static_cast<double>(steals) / kRounds,
                "count");
  report->Layer("native.steal_success",
                steal_attempts == 0 ? 0.0
                                    : static_cast<double>(steals) /
                                          static_cast<double>(steal_attempts),
                "ratio");
  report->Layer("native.busy_frac_min", Median(busy_min), "ratio");
  report->Layer("native.busy_frac_mean", Median(busy_mean), "ratio");
  report->Layer("native.partition_ms_1t", Median(part_1t), "ms");
  report->Layer("native.partition_ms_4t", Median(part_4t), "ms");
  report->Layer("native.partition_tiles", static_cast<double>(tiles),
                "count");
  report->Layer("native.partition_page_faults",
                static_cast<double>(partition_faults) / kRounds, "count");
  report->Layer("obs.join_overhead_pct",
                (Median(join_obs) / join_4t_ms - 1.0) * 100.0, "%");
  report->Layer("join.attributed_frac", Median(attributed), "ratio");
  // The rest of the 1-thread join: work-pool traffic, child-pair
  // bookkeeping and result assembly.
  report->Layer("native.overhead_ms_1t", Median(overhead_ms), "ms");
}

void MeasureJoinLayers(const Maps& maps, const Oracle& oracle,
                       const Tracer& tracer, Report* report) {
  const NodeMatchOptions options;
  JoinTaskSet tasks;
  const double build_tasks_ms = MedianMs(9, tracer, "BuildJoinTasks", [&] {
    tasks = BuildJoinTasks(maps.tree_r, maps.tree_s, kThreads, 3.0, options);
  });
  report->Layer("core.build_tasks_ms", build_tasks_ms, "ms");
  report->Layer("core.tasks", static_cast<double>(tasks.tasks.size()),
                "count");
  const Replay replay = ReplayTasks(maps, tasks, tracer);
  MeasureRestriction(maps, replay.node_pairs, tracer, report);
  report->Fail(replay.candidates !=
                   static_cast<int64_t>(oracle.candidates.size()),
               "MatchNodePages replay candidate count");
  report->Layer("join.node_pairs",
                static_cast<double>(replay.node_pairs.size()), "count");
  report->Layer("join.match_ms.dir", replay.dir_ms, "ms");
  report->Layer("join.match_ms.leaf", replay.leaf_ms, "ms");
  report->Layer("join.pairs_tested", static_cast<double>(replay.pairs_tested),
                "count");
  report->Layer("join.match_yield",
                static_cast<double>(replay.emitted) /
                    static_cast<double>(replay.pairs_tested),
                "ratio");
  report->Layer("join.seq_ms",
                MedianMs(9, tracer, "SequentialRTreeJoin",
                         [&] {
                           (void)SequentialRTreeJoin(maps.tree_r, maps.tree_s);
                         }),
                "ms");
  MeasureEngines(maps, oracle, static_cast<int64_t>(replay.node_pairs.size()),
                 tracer, report);
}

// ---- serve, obs ---------------------------------------------------------------

void ReportRung(const RungOutcome& rung, Report* report) {
  const serve::ServiceStats& stats = rung.stats;
  const auto completed =
      static_cast<double>(stats.completed_ok + stats.deadline_exceeded);
  const auto submitted = static_cast<double>(rung.submitted);
  report->Layer("serve.latency_p50_us", rung.p50_us, "us");
  report->Layer("serve.p99_overall_us", rung.p99_us, "us");
  report->Layer("serve.gen_lag_p99_us", rung.gen_lag_p99_us, "us");
  report->Layer("serve.gen_lag_max_us", rung.gen_lag_max_us, "us");
  report->Layer("serve.submit_ns", rung.submit_ns_mean, "ns");
  report->Layer("serve.queue_wait_us_p50", rung.queue_wait_p50_us, "us");
  report->Layer("serve.queue_wait_us_p99", rung.queue_wait_p99_us, "us");
  report->Layer("serve.exec_us_p50", rung.exec_p50_us, "us");
  report->Layer("serve.exec_us_p99", rung.exec_p99_us, "us");
  report->Layer("serve.deliver_us_p50", rung.stages.deliver_us_p50, "us");
  report->Layer("serve.stage_sum_err_pct", rung.stages.SumErrorPct(), "%");
  report->Layer("serve.avg_batch", stats.AvgBatchSize(), "count");
  report->Layer("serve.nodes_per_query",
                static_cast<double>(stats.descent.nodes_visited) / completed,
                "count");
  report->Layer("serve.entry_tests_per_query",
                static_cast<double>(stats.descent.entry_tests) / completed,
                "count");
  report->Layer("serve.reject_frac",
                static_cast<double>(rung.rejected) / submitted, "ratio");
  report->Layer("serve.deadline_miss_frac",
                static_cast<double>(rung.deadline_missed) / submitted,
                "ratio");
  report->Layer("serve.peak_queue_depth",
                static_cast<double>(stats.peak_queue_depth), "count");
}

/// Batched against one-at-a-time descents of the mix's windows, at the
/// rung's average batch size; and single region joins.
void MeasureDescents(const Maps& maps, const QueryMix& mix, double avg_batch,
                     uint64_t seed, const Tracer& tracer, Report* report) {
  constexpr size_t kWindows = 8192;
  constexpr size_t kRegions = 200;
  QueryGen gen(mix, MapDomain(maps), seed + 202);
  std::vector<Rect> windows;
  while (windows.size() < kWindows) {
    const serve::QueryDescriptor d = gen.Next();
    if (d.type == serve::QueryType::kWindow ||
        d.type == serve::QueryType::kPoint) {
      windows.push_back(d.rect);
    }
  }
  const size_t batch = std::max<size_t>(1, std::lround(avg_batch));
  const auto descend = [&](size_t size, const char* name) {
    serve::DescentStats total;
    serve::BatchWindowOutput out;
    const double ms = TimedMs(tracer, name, [&] {
      for (size_t begin = 0; begin < windows.size(); begin += size) {
        const size_t n = std::min(size, windows.size() - begin);
        serve::DescentStats stats;  // Each call overwrites its stats.
        serve::BatchWindowQueries(
            maps.tree_r, std::span<const Rect>(windows.data() + begin, n), {},
            nullptr, &out, &stats);
        total += stats;
      }
    });
    return std::make_pair(ms, total.nodes_visited);
  };
  const auto [single_ms, single_nodes] =
      descend(1, "BatchWindowQueries batch=1");
  const auto [batched_ms, batched_nodes] =
      descend(batch, "BatchWindowQueries batch=avg");
  (void)single_ms;
  report->Layer("serve.descent_sharing",
                static_cast<double>(single_nodes) /
                    static_cast<double>(batched_nodes),
                "ratio");
  report->Layer("serve.batch_descent_us_per_query",
                batched_ms * 1e3 / static_cast<double>(kWindows), "us");

  std::vector<Rect> regions;
  for (size_t i = 0; i < kRegions; ++i) {
    regions.push_back(gen.Region().rect);
  }
  const double region_ms = TimedMs(tracer, "RegionJoinQuery", [&] {
    for (const Rect& region : regions) {
      serve::RegionJoinOutput out;
      serve::RegionJoinQuery(maps.tree_r, maps.tree_s, region, -1, nullptr,
                             &out);
    }
  });
  report->Layer("serve.region_join_us",
                region_ms * 1e3 / static_cast<double>(kRegions), "us");
}

void MeasureServe(const Maps& maps, const Oracle& oracle, const QueryMix& mix,
                  const RungOutcome* workload_rung, uint64_t seed,
                  double seconds, const Tracer& tracer, Report* report) {
  RungConfig config = MixRung(mix, std::min(2.0, seconds));
  config.trace_sample_every = 64;
  RungOutcome own;
  if (workload_rung == nullptr) {
    own = RunRung(maps, oracle, mix, config, seed + 303, tracer);
    report->attempted += own.submitted;
    CountRungFailures(own, report);
  }
  const RungOutcome& rung = workload_rung != nullptr ? *workload_rung : own;
  ReportRung(rung, report);

  // Registry off against on, on otherwise identical rungs.
  config = MixRung(mix, std::min(1.5, seconds));
  std::vector<double> p50[2];
  for (int rep = 0; rep < 2; ++rep) {
    for (const bool registry : {false, true}) {
      config.registry = registry;
      const RungOutcome r =
          RunRung(maps, oracle, mix, config, seed + 404 + rep, tracer);
      report->attempted += r.submitted;
      CountRungFailures(r, report);
      p50[registry ? 1 : 0].push_back(r.p50_us);
    }
  }
  report->Layer("obs.serve_overhead_pct",
                (Mean(p50[1]) / Mean(p50[0]) - 1.0) * 100.0, "%");
  MeasureDescents(maps, mix, rung.stats.AvgBatchSize(), seed, tracer, report);
}

// ---- sim, buffer ----------------------------------------------------------------

void MeasureSim(const Maps& maps, const Oracle& oracle, const Tracer& tracer,
                Report* report) {
  const ParallelSpatialJoin join(&maps.tree_r, &maps.tree_s, &maps.store_r,
                                 &maps.store_s);
  const auto pick = [](int processors, int disks) {
    for (const ParallelJoinConfig& config : Fig10Configs()) {
      if (config.num_processors == processors && config.num_disks == disks) {
        return config;
      }
    }
    return ParallelJoinConfig::Gd();
  };
  const auto run = [&](const ParallelJoinConfig& config, const char* name,
                       double* median_ms) {
    StatusOr<JoinResult> result = Status::Internal("not run");
    *median_ms = MedianMs(5, tracer, name, [&] { result = join.Run(config); });
    ++report->attempted;
    if (!result.ok() || result->stats.total_candidates !=
                            static_cast<int64_t>(oracle.candidates.size())) {
      report->Fail(1, std::string(name) + " candidate total");
    }
    return result;
  };
  double n1_ms = 0.0;
  double n8_ms = 0.0;
  double n24_ms = 0.0;
  (void)run(pick(1, 1), "ParallelSpatialJoin::Run n=1", &n1_ms);
  const StatusOr<JoinResult> n8 =
      run(pick(8, 8), "ParallelSpatialJoin::Run n=8", &n8_ms);
  const StatusOr<JoinResult> n24 =
      run(pick(24, 24), "ParallelSpatialJoin::Run n=24", &n24_ms);
  report->Layer("sim.join_ms.n1", n1_ms, "ms");
  report->Layer("sim.join_ms.n24", n24_ms, "ms");
  if (!n8.ok() || !n24.ok()) {
    return;
  }
  int64_t node_pairs = 0;
  for (const ProcessorStats& p : n24->stats.per_processor) {
    node_pairs += p.node_pairs_processed;
  }
  report->Layer("sim.node_pairs", static_cast<double>(node_pairs), "count");
  report->Layer("sim.disk_accesses",
                static_cast<double>(n24->stats.total_disk_accesses), "count");
  report->Layer("sim.response_s.n24",
                static_cast<double>(n24->stats.response_time) /
                    static_cast<double>(sim::kSecond),
                "s");
  BufferAccessStats buffer;
  for (const ProcessorStats& p : n8->stats.per_processor) {
    buffer.local_hits += p.buffer.local_hits;
    buffer.remote_hits += p.buffer.remote_hits;
    buffer.disk_reads += p.buffer.disk_reads;
  }
  report->Layer("buffer.hit_ratio.n8",
                static_cast<double>(buffer.local_hits + buffer.remote_hits) /
                    static_cast<double>(buffer.total_accesses()),
                "ratio");
}

}  // namespace

void RunLayerSuite(uint64_t seed, double seconds, const Realization& input,
                   const QueryMix& mix, const RungOutcome* rung,
                   const Tracer& tracer, Report* report) {
  const Maps& maps = *input.maps;
  ReportSetup(maps, report);
  MeasureTreeQueries(maps, mix, seed, tracer, report);
  MeasureJoinLayers(maps, input.oracle, tracer, report);
  MeasureServe(maps, input.oracle, mix, rung, seed, seconds, tracer, report);
  MeasureSim(maps, input.oracle, tracer, report);
}

}  // namespace psj::perfbench
