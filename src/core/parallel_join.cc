#include "core/parallel_join.h"

#include <algorithm>
#include <deque>
#include <memory>

#include "buffer/path_buffer.h"
#include "core/task_builder.h"
#include "core/task_pool.h"
#include "core/workload.h"
#include "join/node_match.h"
#include "trace/trace_sink.h"
#include "util/string_util.h"

namespace psj {
namespace {

/// The simulated task pool's work item: a node pair, named by its index in
/// the join plan.
struct PlanItem {
  uint32_t pair = 0;
  int16_t level = 0;
};

/// One simulated join run. Owns every piece of shared simulation state; the
/// simulated processors access it at their virtual-time sync points (the
/// scheduler's single-runner invariant makes that race free — this is the
/// shared virtual memory of the platform).
class JoinDriver {
 public:
  JoinDriver(const RStarTree& tree_r, const RStarTree& tree_s,
             const JoinPlan& plan, const ParallelJoinConfig& config)
      : tree_r_(tree_r),
        tree_s_(tree_s),
        cache_r_(tree_r.sealed()),
        cache_s_(tree_s.sealed()),
        plan_(plan),
        config_(config),
        match_options_{config.use_search_space_restriction,
                       config.use_plane_sweep},
        num_levels_(std::max(tree_r.height(), tree_s.height())),
        scheduler_(config.tiebreak),
        disks_(config.num_disks, config.costs.disk),
        pool_(config.num_processors, num_levels_, config.costs,
              config.seed) {
    if (config_.placement == PagePlacement::kHilbertStriping) {
      // Decluster both trees along one Hilbert curve over the union of
      // their root MBRs.
      const Rect world = tree_r.root_mbr().UnionWith(tree_s.root_mbr());
      auto placement =
          ComputeHilbertStriping(tree_r, world, config_.num_disks);
      auto placement_s =
          ComputeHilbertStriping(tree_s, world, config_.num_disks);
      placement.insert(placement_s.begin(), placement_s.end());
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
    candidate_pairs_.resize(static_cast<size_t>(n));
    answer_pairs_.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      stats_regions_.emplace_back(StringPrintf("join.stats.cpu%d", i));
    }
    if (config_.trace != nullptr) {
      trace_ = config_.trace;
      scheduler_.set_trace(trace_);
      disks_.BindTrace(trace_);
      buffers_->set_trace(trace_);
      pool_.set_trace(trace_);
      for (int i = 0; i < n; ++i) {
        trace_->SetTrackName(i, StringPrintf("cpu %d", i));
      }
      task_duration_histogram_ = trace_->histogram("task_duration_us");
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

  JoinResult Run() {
    for (int i = 0; i < config_.num_processors; ++i) {
      scheduler_.Spawn([this](sim::Process& p) { ProcessorBody(p); });
    }
    scheduler_.Run();

    JoinResult result;
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
    result.stats.per_processor = stats_;
    result.stats.num_tasks = num_tasks_;
    result.stats.task_level = task_level_;
    result.stats.task_creation_time = task_creation_time_;
    result.stats.Finalize(disks_.total_accesses(),
                          disks_.total_queue_wait());
    if (config_.collect_pairs) {
      result.candidate_pairs.reserve(plan_.num_candidates());
      for (auto& pairs : candidate_pairs_) {
        result.candidate_pairs.insert(result.candidate_pairs.end(),
                                      pairs.begin(), pairs.end());
      }
      for (auto& pairs : answer_pairs_) {
        result.answer_pairs.insert(result.answer_pairs.end(), pairs.begin(),
                                   pairs.end());
      }
    }
    return result;
  }

 private:
  // ---- Per-processor main ----

  void ProcessorBody(sim::Process& p) {
    if (p.id() == 0) {
      CreateAndAssignTasks(p);
    } else {
      // Phases 1 and 2 run sequentially on processor 0 (§3.1); the others
      // sleep until it posts the ready flag. Processor 0 notifies them one
      // by one, so each worker resumes at a distinct virtual time — were
      // they all to poll on a common interval instead, they would hit the
      // shared task queue simultaneously and the task assignment would be
      // decided by the scheduler's tie-break.
      while (!tasks_ready_.Read(p, "JoinDriver::ProcessorBody/wait")) {
        p.Block();
      }
    }
    WorkLoop(p);
  }

  // ---- Phase 1 + 2: task creation and assignment (processor 0) ----

  void CreateAndAssignTasks(sim::Process& p) {
    const sim::SimTime creation_start = p.now();
    // The traversal itself (which nodes are read, which pairs are matched,
    // in which order) is the engine-agnostic BuildJoinTasks; the hooks
    // charge this engine's virtual-time costs at the same points the
    // inlined implementation did, so results are bit-identical.
    JoinTaskHooks hooks;
    hooks.fetch_node = [this, &p](const RStarTree& tree, uint32_t page,
                                  int level) {
      ChargeFetch(p, tree, page, level);
    };
    hooks.charge_alignment_test = [this, &p] {
      p.Advance(config_.costs.cpu_per_pair_tested);
    };
    hooks.charge_match = [this, &p](const NodeMatchCounts& counts) {
      p.Advance(static_cast<sim::SimTime>(counts.entries_considered_r +
                                          counts.entries_considered_s) *
                    config_.costs.cpu_per_entry_sorted +
                static_cast<sim::SimTime>(counts.pairs_tested) *
                    config_.costs.cpu_per_pair_tested);
    };
    const JoinTaskSet tasks = BuildJoinTasks(
        tree_r_, tree_s_, config_.num_processors,
        config_.task_creation_factor, match_options_, hooks, &match_scratch_);
    p.Advance(static_cast<sim::SimTime>(tasks.tasks.size()) *
              config_.costs.task_creation_per_pair);
    num_tasks_ = static_cast<int64_t>(tasks.tasks.size());
    task_level_ = tasks.task_level;

    // The tasks are the plan's pairs at the task level, in the same order:
    // both come from the same breadth-first descent.
    std::vector<PlanItem> items;
    items.reserve(tasks.tasks.size());
    const size_t first = plan_.FirstPairAt(task_level_);
    for (size_t k = 0; k < tasks.tasks.size(); ++k) {
      const JoinPlan::Pair& planned = plan_.pair(first + k);
      PSJ_CHECK(planned.page_r == tasks.tasks[k].page_r &&
                planned.page_s == tasks.tasks[k].page_s)
          << "task " << k << " is not the plan's pair " << first + k;
      items.push_back(PlanItem{static_cast<uint32_t>(first + k),
                               planned.level});
    }
    pool_.Assign(config_.assignment, items, task_level_);
    task_creation_time_ = p.now();
    if (trace_ != nullptr) {
      trace_->Span(p.id(), trace::Category::kTaskCreation, "task creation",
                   creation_start, p.now(), num_tasks_, task_level_);
    }
    p.Sync();
    tasks_ready_.Write(p, "JoinDriver::CreateAndAssignTasks/publish", true);
    // Wake the waiting processors one after another: posting the flag to
    // each costs task_ready_notify, so worker i enters the work loop
    // task_ready_notify later than worker i-1 (and processor 0 follows
    // after the last post) — the first shared accesses are ordered by the
    // cost model, not by dispatch tie-breaks.
    for (int i = 1; i < config_.num_processors; ++i) {
      p.Advance(config_.costs.task_ready_notify);
      scheduler_.process(i)->MakeReadyIfBlocked(p.now());
    }
    p.Advance(config_.costs.task_ready_notify);
  }

  // ---- Phase 3: parallel task execution ----

  void WorkLoop(sim::Process& p) {
    const size_t cpu = static_cast<size_t>(p.id());
    for (;;) {
      std::optional<PlanItem> item = pool_.NextItem(p);
      if (item.has_value()) {
        const sim::SimTime start = p.now();
        const JoinPlan::Pair& pair = plan_.pair(item->pair);
        ExecutePair(p, pair);
        pool_.FinishItem(p.id());
        stats_regions_[cpu].NoteWrite(p, "JoinDriver::WorkLoop/accumulate");
        stats_[cpu].busy_time += p.now() - start;
        stats_[cpu].last_work_time = p.now();
        if (trace_ != nullptr) {
          trace_->Span(p.id(), trace::Category::kTask, "task", start, p.now(),
                       pair.page_r, pair.page_s);
          task_duration_histogram_->Record(p.now() - start);
        }
        continue;
      }
      // Out of own work.
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

  // Charges one node pair exactly as matching it and refining its
  // candidates would; the results come from the plan.
  void ExecutePair(sim::Process& p, const JoinPlan::Pair& pair) {
    const size_t cpu = static_cast<size_t>(p.id());
    ChargeFetch(p, tree_r_, pair.page_r, pair.level);
    ChargeFetch(p, tree_s_, pair.page_s, pair.level);
    p.Advance(static_cast<sim::SimTime>(pair.entries_considered) *
                  config_.costs.cpu_per_entry_sorted +
              static_cast<sim::SimTime>(pair.pairs_tested) *
                  config_.costs.cpu_per_pair_tested);
    ++stats_[cpu].node_pairs_processed;
    if (trace_ != nullptr) {
      trace_->Instant(p.id(), trace::Category::kNodePair, "node pair",
                      p.now(), static_cast<int64_t>(pair.count), pair.level);
    }

    if (pair.level > 0) {
      // Directory pair: the matched child pairs become pending work, in
      // local plane-sweep order.
      std::vector<PlanItem> children;
      children.reserve(pair.count);
      for (uint32_t k = pair.first; k < pair.first + pair.count; ++k) {
        children.push_back(
            PlanItem{k, static_cast<int16_t>(pair.level - 1)});
      }
      pool_.Push(p, children);
      return;
    }

    // Data page pair: every matched entry pair is a candidate; the same
    // processor performs the refinement step (§3), whose exact-geometry
    // test is charged as a waiting period derived from the MBR overlap.
    const NodeSoAView nr = cache_r_.view(pair.page_r);
    const NodeSoAView ns = cache_s_.view(pair.page_s);
    for (const JoinPlan::Candidate& candidate : plan_.candidates(pair)) {
      const uint64_t id_r = nr.ids[candidate.entry_r];
      const uint64_t id_s = ns.ids[candidate.entry_s];
      ++stats_[cpu].candidates;
      if (config_.use_second_filter) {
        // Second filter step: cheap section-MBR screening; a proven false
        // hit skips the expensive exact-geometry waiting period. The
        // section approximations live in the geometry clusters in the
        // paper's storage scheme, so their I/O rides along with the data
        // page access.
        p.Advance(static_cast<sim::SimTime>(candidate.filter_tests) *
                  config_.costs.cpu_per_pair_tested);
        if (!candidate.passes_filter) {
          ++stats_[cpu].second_filter_eliminated;
          if (config_.collect_pairs) {
            candidate_pairs_[cpu].emplace_back(id_r, id_s);
          }
          p.Sync();
          continue;
        }
      }
      const sim::SimTime refine_cost = config_.costs.RefinementCost(
          nr.rects.rect(candidate.entry_r), ns.rects.rect(candidate.entry_s));
      if (trace_ != nullptr) {
        trace_->Span(p.id(), trace::Category::kRefinement, "refinement",
                     p.now(), p.now() + refine_cost);
      }
      p.Advance(refine_cost);
      stats_[cpu].refinement_time += refine_cost;
      if (candidate.is_answer) {
        ++stats_[cpu].answers;
      }
      if (config_.collect_pairs) {
        candidate_pairs_[cpu].emplace_back(id_r, id_s);
        if (candidate.is_answer) {
          answer_pairs_[cpu].emplace_back(id_r, id_s);
        }
      }
      p.Sync();  // Let the refinement waiting period interleave.
    }
  }

  // Charges one node read: a path-buffer hit, or a fetch through the
  // buffer pool.
  void ChargeFetch(sim::Process& p, const RStarTree& tree, uint32_t page,
                   int level) {
    const size_t cpu = static_cast<size_t>(p.id());
    const PageId pid{tree.tree_id(), page};
    if (config_.use_path_buffer &&
        path_buffers_[cpu].Contains(pid, level)) {
      p.Advance(config_.costs.path_buffer_hit);
      ++stats_[cpu].path_buffer_hits;
      if (trace_ != nullptr) {
        trace_->Instant(p.id(), trace::Category::kPathBufferHit,
                        "path buffer hit", p.now(), pid.page_no, level);
      }
    } else {
      buffers_->FetchPage(p, pid, /*is_data_page=*/level == 0);
      if (config_.use_path_buffer) {
        path_buffers_[cpu].Enter(pid, level);
      }
    }
  }

  // ---- Fixed inputs ----
  const RStarTree& tree_r_;
  const RStarTree& tree_s_;
  const NodeSoACache& cache_r_;
  const NodeSoACache& cache_s_;
  const JoinPlan& plan_;
  const ParallelJoinConfig& config_;
  const NodeMatchOptions match_options_;
  // Task creation's matching scratch.
  NodeMatchScratch match_scratch_;
  const int num_levels_;

  // ---- Simulated platform ----
  sim::Scheduler scheduler_;
  DiskArrayModel disks_;
  std::unique_ptr<BufferPool> buffers_;

  // ---- Shared state (the "shared virtual memory") ----
  check::Cell<bool> tasks_ready_{"join.tasks_ready"};
  TaskPool<PlanItem> pool_;
  std::vector<PathBuffer> path_buffers_;

  // ---- Observability (null when tracing is disabled) ----
  trace::TraceSink* trace_ = nullptr;
  trace::Histogram* task_duration_histogram_ = nullptr;

  // ---- Results ----
  /// Per-processor detector regions over the stats slots (deque: Region is
  /// pinned).
  std::deque<check::Region> stats_regions_;
  std::vector<ProcessorStats> stats_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> candidate_pairs_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> answer_pairs_;
  int64_t num_tasks_ = 0;
  int task_level_ = 0;
  sim::SimTime task_creation_time_ = 0;
};

}  // namespace

ParallelSpatialJoin::ParallelSpatialJoin(const RStarTree* tree_r,
                                         const RStarTree* tree_s,
                                         const ObjectStore* objects_r,
                                         const ObjectStore* objects_s)
    : tree_r_(tree_r),
      tree_s_(tree_s),
      objects_r_(objects_r),
      objects_s_(objects_s) {
  PSJ_CHECK(tree_r != nullptr);
  PSJ_CHECK(tree_s != nullptr);
}

Status ParallelSpatialJoin::CheckInputs(
    const ParallelJoinConfig& config) const {
  PSJ_RETURN_IF_ERROR(config.Validate());
  if (tree_r_ != tree_s_ && tree_r_->tree_id() == tree_s_->tree_id()) {
    return Status::InvalidArgument(
        "distinct trees must have distinct tree ids");
  }
  if ((config.compute_answers || config.use_second_filter) &&
      (objects_r_ == nullptr || objects_s_ == nullptr)) {
    return Status::InvalidArgument(
        "compute_answers/use_second_filter require both object stores");
  }
  if (tree_r_->soa() == nullptr || tree_s_->soa() == nullptr) {
    return Status::FailedPrecondition(
        "the join reads sealed trees; call RStarTree::Seal() first");
  }
  return Status::OK();
}

StatusOr<JoinPlan> ParallelSpatialJoin::BuildPlan(
    const ParallelJoinConfig& config) const {
  PSJ_RETURN_IF_ERROR(CheckInputs(config));
  return JoinPlan::Build(*tree_r_, *tree_s_, objects_r_, objects_s_,
                         JoinPlanKey::Of(config));
}

StatusOr<JoinResult> ParallelSpatialJoin::Run(
    const ParallelJoinConfig& config) const {
  PSJ_ASSIGN_OR_RETURN(const JoinPlan plan, BuildPlan(config));
  return Run(config, plan);
}

StatusOr<JoinResult> ParallelSpatialJoin::Run(const ParallelJoinConfig& config,
                                              const JoinPlan& plan) const {
  PSJ_RETURN_IF_ERROR(CheckInputs(config));
  if (!plan.IsFor(tree_r_, tree_s_, objects_r_, objects_s_)) {
    return Status::InvalidArgument(
        "the join plan was built for other trees or object stores");
  }
  if (!(plan.key() == JoinPlanKey::Of(config))) {
    return Status::InvalidArgument(
        "the join plan was built for other match, filter or answer options");
  }
  JoinDriver driver(*tree_r_, *tree_s_, plan, config);
  return driver.Run();
}

}  // namespace psj
