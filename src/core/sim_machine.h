#ifndef PSJ_CORE_SIM_MACHINE_H_
#define PSJ_CORE_SIM_MACHINE_H_

#include <algorithm>
#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "buffer/path_buffer.h"
#include "check/access_registry.h"
#include "core/join_config.h"
#include "core/join_stats.h"
#include "core/placement.h"
#include "core/task_pool.h"
#include "rtree/rstar_tree.h"
#include "trace/trace_sink.h"
#include "util/string_util.h"

namespace psj {

/// \brief The simulated shared-virtual-memory multiprocessor of the paper's
/// §3 framework, generic over the work item like TaskPool: the join runs
/// node pairs on it, the window query single subtrees.
///
/// One machine simulates one run from cold buffers. It owns the scheduler,
/// the disk array, the buffer organization, the per-processor path buffers,
/// the task pool, the task-ready flag and the per-processor statistics. An
/// operator supplies its phase 1 (task creation, on processor 0, ending in
/// Assign()) and what executing one item charges; Run() does the rest. The
/// simulated processors touch the machine's state only at virtual-time sync
/// points, and the scheduler runs one at a time, so that state is the
/// platform's shared virtual memory.
template <typename Item>
class SimMachine {
 public:
  /// `name` prefixes the race detector's regions ("<name>.tasks_ready",
  /// "<name>.stats.cpuN"). `trees` are the operator's sealed input trees:
  /// Hilbert striping declusters their pages along one curve over the
  /// union of their root MBRs, and the path buffers and the task pool span
  /// the tallest. `trace` may be null; `config` must outlive the machine.
  SimMachine(const char* name, std::initializer_list<const RStarTree*> trees,
             const SimConfig& config, trace::TraceSink* trace)
      : config_(config),
        trace_(trace),
        num_levels_(TallestHeight(trees)),
        scheduler_(config.tiebreak),
        disks_(config.num_disks, config.costs.disk),
        tasks_ready_(StringPrintf("%s.tasks_ready", name)),
        pool_(config.num_processors, num_levels_, config.costs, config.seed) {
    if (config_.placement == PagePlacement::kHilbertStriping) {
      Rect world = (*trees.begin())->root_mbr();
      for (const RStarTree* tree : trees) {
        world = world.UnionWith(tree->root_mbr());
      }
      std::unordered_map<PageId, int, PageIdHash> placement;
      for (const RStarTree* tree : trees) {
        placement.merge(
            ComputeHilbertStriping(*tree, world, config_.num_disks));
      }
      disks_.SetExplicitPlacement(std::move(placement));
    }
    const int n = config_.num_processors;
    switch (config_.buffer_type) {
      case BufferType::kLocal:
        buffers_ = std::make_unique<LocalBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
      case BufferType::kGlobal:
        buffers_ = std::make_unique<GlobalBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
      case BufferType::kSharedNothing:
        buffers_ = std::make_unique<SharedNothingBufferPool>(
            n, config_.total_buffer_pages, &disks_, config_.costs.buffer);
        break;
    }
    path_buffers_.assign(static_cast<size_t>(n), PathBuffer(num_levels_));
    stats_.assign(static_cast<size_t>(n), ProcessorStats());
    for (int i = 0; i < n; ++i) {
      stats_regions_.emplace_back(StringPrintf("%s.stats.cpu%d", name, i));
    }
    if (trace_ != nullptr) {
      scheduler_.set_trace(trace_);
      disks_.BindTrace(trace_);
      buffers_->set_trace(trace_);
      pool_.set_trace(trace_);
      for (int i = 0; i < n; ++i) {
        trace_->SetTrackName(i, StringPrintf("cpu %d", i));
      }
    }
    if (config_.check != nullptr) {
      disks_.BindCheck(config_.check);
      buffers_->set_check(config_.check);
      pool_.set_check(config_.check);
      tasks_ready_.Bind(config_.check);
      for (auto& region : stats_regions_) {
        region.Bind(config_.check);
      }
    }
  }

  SimMachine(const SimMachine&) = delete;
  SimMachine& operator=(const SimMachine&) = delete;

  /// Simulates the run and returns its finalized statistics. Processor 0
  /// calls `create(p)`, which must end in Assign(); the other processors
  /// sleep until Assign() posts the ready flag. Then every processor runs
  /// the phase-3 work loop, calling `execute(p, item)` per item.
  template <typename Create, typename Execute>
  JoinStats Run(Create create, Execute execute) {
    for (int i = 0; i < config_.num_processors; ++i) {
      scheduler_.Spawn([this, &create, &execute](sim::Process& p) {
        if (p.id() == 0) {
          create(p);
        } else {
          // Phases 1 and 2 run sequentially on processor 0 (§3.1); the
          // others sleep until it posts the ready flag.
          while (!tasks_ready_.Read(p, "SimMachine::Run/wait")) {
            p.Block();
          }
        }
        WorkLoop(p, execute);
      });
    }
    scheduler_.Run();

    JoinStats result;
    for (int i = 0; i < config_.num_processors; ++i) {
      ProcessorStats& stats = stats_[static_cast<size_t>(i)];
      stats.buffer = buffers_->stats(i);
      const TaskPoolCounters& counters = pool_.counters(i);
      stats.tasks_started = counters.tasks_started;
      stats.steal_requests_sent = counters.steal_requests_sent;
      stats.steal_requests_failed = counters.steal_requests_failed;
      stats.pairs_stolen = counters.items_stolen;
      stats.pairs_given = counters.items_given;
      stats.disk_queue_wait = disks_.queue_wait_of_cpu(i);
    }
    result.per_processor = stats_;
    result.num_tasks = num_tasks_;
    result.task_level = task_level_;
    result.task_creation_time = task_creation_time_;
    result.Finalize(disks_.total_accesses(), disks_.total_queue_wait());
    return result;
  }

  /// Phase 2 on processor 0: charges the creation of `tasks` (in local
  /// plane-sweep order, all at tree level `level`), assigns them, records
  /// the sequential phase that began at `creation_start`, and posts the
  /// ready flag.
  void Assign(sim::Process& p, sim::SimTime creation_start,
              const std::vector<Item>& tasks, int level) {
    p.Advance(static_cast<sim::SimTime>(tasks.size()) *
              config_.costs.task_creation_per_pair);
    num_tasks_ = static_cast<int64_t>(tasks.size());
    task_level_ = level;
    pool_.Assign(config_.assignment, tasks, level);
    task_creation_time_ = p.now();
    if (trace_ != nullptr) {
      trace_->Span(p.id(), trace::Category::kTaskCreation, "task creation",
                   creation_start, p.now(), num_tasks_, task_level_);
    }
    p.Sync();
    tasks_ready_.Write(p, "SimMachine::Assign/publish", true);
    // Wake the waiting processors one after another: posting the flag to
    // each costs task_ready_notify, so worker i enters the work loop
    // task_ready_notify later than worker i-1 (and processor 0 follows
    // after the last post) — the first shared accesses are ordered by the
    // cost model, not by dispatch tie-breaks, as they would be were the
    // workers to poll on a common interval.
    for (int i = 1; i < config_.num_processors; ++i) {
      p.Advance(config_.costs.task_ready_notify);
      scheduler_.process(i)->MakeReadyIfBlocked(p.now());
    }
    p.Advance(config_.costs.task_ready_notify);
  }

  /// Charges one node read: a path-buffer hit, or a fetch through the
  /// buffer pool.
  void ChargeFetch(sim::Process& p, const PageId& page, int level) {
    const size_t cpu = static_cast<size_t>(p.id());
    if (config_.use_path_buffer && path_buffers_[cpu].Contains(page, level)) {
      p.Advance(config_.costs.path_buffer_hit);
      ++stats_[cpu].path_buffer_hits;
      if (trace_ != nullptr) {
        trace_->Instant(p.id(), trace::Category::kPathBufferHit,
                        "path buffer hit", p.now(), page.page_no, level);
      }
    } else {
      buffers_->FetchPage(p, page, /*is_data_page=*/level == 0);
      if (config_.use_path_buffer) {
        path_buffers_[cpu].Enter(page, level);
      }
    }
  }

  /// Adds the child work that processor `p` produced while executing an
  /// item.
  void Push(sim::Process& p, const std::vector<Item>& items) {
    pool_.Push(p, items);
  }

  /// Processor `p`'s statistics slot, for the executing operator's counts.
  ProcessorStats& stats(const sim::Process& p) {
    return stats_[static_cast<size_t>(p.id())];
  }

 private:
  static int TallestHeight(std::initializer_list<const RStarTree*> trees) {
    int height = 0;
    for (const RStarTree* tree : trees) {
      height = std::max(height, tree->height());
    }
    return height;
  }

  // Phase 3: pop an item of the own workload or the shared queue; when
  // there is none, finish, poll, or try to steal.
  template <typename Execute>
  void WorkLoop(sim::Process& p, Execute& execute) {
    const size_t cpu = static_cast<size_t>(p.id());
    for (;;) {
      std::optional<Item> item = pool_.NextItem(p);
      if (item.has_value()) {
        const sim::SimTime start = p.now();
        execute(p, *item);
        pool_.FinishItem(p.id());
        stats_regions_[cpu].NoteWrite(p, "SimMachine::WorkLoop/accumulate");
        stats_[cpu].busy_time += p.now() - start;
        stats_[cpu].last_work_time = p.now();
        continue;
      }
      p.Sync();
      if (pool_.GlobalDone()) {
        return;
      }
      if (config_.reassignment == ReassignmentLevel::kNone) {
        p.WaitUntil(p.now() + config_.costs.idle_poll_interval);
        continue;
      }
      pool_.TryStealWork(p, config_.reassignment, config_.victim_policy);
    }
  }

  const SimConfig& config_;
  trace::TraceSink* const trace_;
  const int num_levels_;

  // ---- Simulated platform ----
  sim::Scheduler scheduler_;
  DiskArrayModel disks_;
  std::unique_ptr<BufferPool> buffers_;

  // ---- Shared state (the "shared virtual memory") ----
  check::Cell<bool> tasks_ready_;
  TaskPool<Item> pool_;
  std::vector<PathBuffer> path_buffers_;

  // ---- Results ----
  /// Per-processor detector regions over the stats slots (deque: Region is
  /// pinned).
  std::deque<check::Region> stats_regions_;
  std::vector<ProcessorStats> stats_;
  int64_t num_tasks_ = 0;
  int task_level_ = 0;
  sim::SimTime task_creation_time_ = 0;
};

}  // namespace psj

#endif  // PSJ_CORE_SIM_MACHINE_H_
