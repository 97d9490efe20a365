#include "native/native_join.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/task_builder.h"
#include "native/work_pool.h"
#include "util/check.h"
#include "util/string_util.h"

namespace psj::native {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One native join run: the shared pool, the per-worker outputs, and the
/// worker body. Workers never touch each other's outputs; the only shared
/// mutable state is inside the WorkStealingPool.
class NativeJoiner {
 public:
  NativeJoiner(const RStarTree& tree_r, const RStarTree& tree_s,
               const NativeJoinConfig& config)
      : tree_r_(tree_r),
        tree_s_(tree_s),
        cache_r_(tree_r.sealed()),
        cache_s_(tree_s.sealed()),
        config_(config),
        num_levels_(std::max(tree_r.height(), tree_s.height())),
        pool_(config.num_threads, num_levels_) {
    workers_.resize(static_cast<size_t>(config.num_threads));
  }

  NativeJoinResult Run() {
    const Clock::time_point start = Clock::now();
    if (config_.metrics != nullptr) {
      obs::MetricsRegistry& m = *config_.metrics;
      metric_tasks_ = m.DefineCounter("native_tasks_executed_count");
      metric_node_pairs_ = m.DefineCounter("native_node_pairs_count");
      metric_steals_ = m.DefineCounter("native_steal_count");
      metric_steal_attempts_ =
          m.DefineCounter("native_steal_attempt_count");
      metric_candidates_ = m.DefineCounter("native_candidates_count");
      metric_busy_ = m.DefineCounter("native_worker_busy_us");
      metric_task_duration_ =
          m.DefineHistogram("native_task_duration_us");
      m.Freeze();
    }
    // Phase 1: task creation — same traversal as the simulated engine,
    // no hooks (in-memory trees, nothing to charge).
    JoinTaskSet tasks =
        BuildJoinTasks(tree_r_, tree_s_, config_.num_threads,
                       config_.task_creation_factor, config_.match,
                       JoinTaskHooks(), &workers_[0].scratch);
    result_.num_tasks = static_cast<int64_t>(tasks.tasks.size());
    result_.task_level = tasks.task_level;

    // Phase 2: assignment.
    if (Deterministic()) {
      pool_.AssignStatic(tasks.tasks);
    } else {
      pool_.AssignShared(tasks.tasks);
    }

    // Phase 3: parallel execution. The calling thread is worker 0.
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(config_.num_threads - 1));
    for (int w = 1; w < config_.num_threads; ++w) {
      threads.emplace_back([this, w] { WorkerBody(w); });
    }
    WorkerBody(0);
    for (std::thread& thread : threads) {
      thread.join();
    }

    // Merge per-worker outputs in worker order; deterministic mode
    // additionally sorts, so the vector is bit-identical run to run and
    // across thread counts.
    size_t total = 0;
    for (const WorkerState& w : workers_) {
      total += w.candidates.size();
    }
    result_.candidates.reserve(total);
    for (WorkerState& w : workers_) {
      result_.candidates.insert(result_.candidates.end(),
                                w.candidates.begin(), w.candidates.end());
      result_.node_pairs_processed += w.stats.node_pairs_processed;
      result_.per_worker.push_back(w.stats);
    }
    if (Deterministic()) {
      SortPairs(&result_.candidates);
    }
    result_.wall_ms = ElapsedMs(start);
    return std::move(result_);
  }

 private:
  bool Deterministic() const { return config_.deterministic; }
  bool StealingEnabled() const {
    return config_.enable_stealing && !Deterministic();
  }

  struct WorkerState {
    std::vector<std::pair<uint64_t, uint64_t>> candidates;
    NodeMatchScratch scratch;
    NativeWorkerStats stats;
    int64_t busy_ns = 0;  // Converted into stats.busy_us once, at drain.
    std::vector<NodePair> children;  // Reused per directory pair.
  };

  void WorkerBody(int id) {
    WorkerState& w = workers_[static_cast<size_t>(id)];
    obs::MetricsRegistry* const metrics = config_.metrics;
    for (;;) {
      std::optional<NodePair> item = pool_.Next(id);
      if (item.has_value()) {
        ++w.stats.tasks_executed;
        if (metrics == nullptr) {
          ExecutePair(id, w, *item);
        } else {
          // Per-task wall-clock timing only on the instrumented path: the
          // disabled path above stays clock-free.
          const Clock::time_point task_start = Clock::now();
          ExecutePair(id, w, *item);
          const int64_t task_ns =
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - task_start)
                  .count();
          // A task takes about a microsecond: summing whole microseconds
          // would drop half the busy time, so busy time sums nanoseconds.
          w.busy_ns += task_ns;
          metrics->Record(id, metric_task_duration_, task_ns / 1000);
        }
        pool_.FinishItem();
        continue;
      }
      if (pool_.Done()) {
        if (metrics != nullptr) {
          // Totals that only exist at drain time; one flush per worker.
          w.stats.busy_us = w.busy_ns / 1000;
          metrics->Add(id, metric_tasks_, w.stats.tasks_executed);
          metrics->Add(id, metric_node_pairs_,
                       w.stats.node_pairs_processed);
          metrics->Add(id, metric_steals_, w.stats.steals);
          metrics->Add(id, metric_steal_attempts_, w.stats.steal_attempts);
          metrics->Add(id, metric_candidates_, w.stats.candidates);
          metrics->Add(id, metric_busy_, w.stats.busy_us);
        }
        return;
      }
      if (StealingEnabled()) {
        ++w.stats.steal_attempts;
        if (pool_.TrySteal(id) > 0) {
          ++w.stats.steals;
          continue;
        }
      }
      // No work anywhere yet (items are in flight on other workers):
      // yield rather than spin hot. In deterministic mode this only
      // happens in the drain-out, since nothing ever migrates.
      std::this_thread::yield();
    }
  }

  void ExecutePair(int id, WorkerState& w, const NodePair& pair) {
    const NodeSoAView nr = cache_r_.view(pair.page_r);
    const NodeSoAView ns = cache_s_.view(pair.page_s);
    const auto matches =
        MatchNodeEntriesSoA(nr, ns, config_.match, nullptr, &w.scratch);
    ++w.stats.node_pairs_processed;

    if (pair.level > 0) {
      w.children.clear();
      w.children.reserve(matches.size());
      for (const auto& [i, j] : matches) {
        w.children.push_back(NodePair{nr.child_page(i), ns.child_page(j),
                                      static_cast<int16_t>(pair.level - 1)});
      }
      pool_.PushChildren(id, w.children);
      return;
    }
    for (const auto& [i, j] : matches) {
      w.candidates.emplace_back(nr.ids[i], ns.ids[j]);
    }
    w.stats.candidates += static_cast<int64_t>(matches.size());
  }

  const RStarTree& tree_r_;
  const RStarTree& tree_s_;
  const NodeSoACache& cache_r_;
  const NodeSoACache& cache_s_;
  const NativeJoinConfig& config_;
  const int num_levels_;
  WorkStealingPool<NodePair> pool_;
  std::vector<WorkerState> workers_;
  NativeJoinResult result_;

  // Metric handles, defined in Run() when config_.metrics is set.
  obs::CounterId metric_tasks_, metric_node_pairs_, metric_steals_,
      metric_steal_attempts_, metric_candidates_, metric_busy_;
  obs::HistogramId metric_task_duration_;
};

}  // namespace

NativeJoinResult NativeRTreeJoin(const RStarTree& tree_r,
                                 const RStarTree& tree_s,
                                 const NativeJoinConfig& config) {
  PSJ_CHECK_GT(config.num_threads, 0);
  if (&tree_r != &tree_s) {
    PSJ_CHECK(tree_r.tree_id() != tree_s.tree_id())
        << "distinct trees must have distinct tree ids";
  }
  NativeJoiner joiner(tree_r, tree_s, config);
  return joiner.Run();
}

int64_t NativeJoinResult::TotalSteals() const {
  int64_t total = 0;
  for (const NativeWorkerStats& w : per_worker) {
    total += w.steals;
  }
  return total;
}

std::string NativeJoinResult::Summary() const {
  std::string out = StringPrintf(
      "native join: %.2f ms wall, %s tasks (level %d), %s node pairs, "
      "%s candidates, %s steals\n",
      wall_ms, FormatWithCommas(num_tasks).c_str(), task_level,
      FormatWithCommas(node_pairs_processed).c_str(),
      FormatWithCommas(static_cast<int64_t>(candidates.size())).c_str(),
      FormatWithCommas(TotalSteals()).c_str());
  for (size_t w = 0; w < per_worker.size(); ++w) {
    const NativeWorkerStats& stats = per_worker[w];
    out += StringPrintf(
        "  worker %2zu: %6lld tasks, %8lld node pairs, %9lld candidates, "
        "%4lld/%lld steals\n",
        w, static_cast<long long>(stats.tasks_executed),
        static_cast<long long>(stats.node_pairs_processed),
        static_cast<long long>(stats.candidates),
        static_cast<long long>(stats.steals),
        static_cast<long long>(stats.steal_attempts));
  }
  return out;
}

int HostHardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void SortPairs(std::vector<std::pair<uint64_t, uint64_t>>* pairs) {
  std::sort(pairs->begin(), pairs->end());
}

bool PairSetsEqual(std::vector<std::pair<uint64_t, uint64_t>> a,
                   std::vector<std::pair<uint64_t, uint64_t>> b) {
  SortPairs(&a);
  a.erase(std::unique(a.begin(), a.end()), a.end());
  SortPairs(&b);
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

}  // namespace psj::native
