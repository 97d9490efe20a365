#include "core/parallel_join.h"

#include <vector>

#include "core/sim_machine.h"
#include "core/task_builder.h"
#include "join/node_match.h"
#include "trace/trace_sink.h"

namespace psj {
namespace {

/// The simulated machine's work item: a node pair, named by its index in
/// the join plan.
struct PlanItem {
  uint32_t pair = 0;
  int16_t level = 0;
};

/// One simulated join run on the simulated machine: the join's task
/// creation, what executing one node pair charges, and the collected pairs.
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
        trace_(config.trace),
        machine_("join", {&tree_r, &tree_s}, config, config.trace) {
    candidate_pairs_.resize(static_cast<size_t>(config_.num_processors));
    answer_pairs_.resize(static_cast<size_t>(config_.num_processors));
    if (trace_ != nullptr) {
      task_duration_histogram_ = trace_->histogram("task_duration_us");
    }
  }

  JoinResult Run() {
    JoinResult result;
    result.stats = machine_.Run(
        [this](sim::Process& p) { CreateTasks(p); },
        [this](sim::Process& p, const PlanItem& item) { Execute(p, item); });
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
  // ---- Phase 1: task creation (processor 0) ----

  void CreateTasks(sim::Process& p) {
    const sim::SimTime creation_start = p.now();
    // The traversal itself (which nodes are read, which pairs are matched,
    // in which order) is the engine-agnostic BuildJoinTasks; the hooks
    // charge this engine's virtual-time costs at the same points the
    // inlined implementation did, so results are bit-identical.
    JoinTaskHooks hooks;
    hooks.fetch_node = [this, &p](const RStarTree& tree, uint32_t page,
                                  int level) {
      machine_.ChargeFetch(p, PageId{tree.tree_id(), page}, level);
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

    // The tasks are the plan's pairs at the task level, in the same order:
    // both come from the same breadth-first descent.
    std::vector<PlanItem> items;
    items.reserve(tasks.tasks.size());
    const size_t first = plan_.FirstPairAt(tasks.task_level);
    for (size_t k = 0; k < tasks.tasks.size(); ++k) {
      const JoinPlan::Pair& planned = plan_.pair(first + k);
      PSJ_CHECK(planned.page_r == tasks.tasks[k].page_r &&
                planned.page_s == tasks.tasks[k].page_s)
          << "task " << k << " is not the plan's pair " << first + k;
      items.push_back(PlanItem{static_cast<uint32_t>(first + k),
                               planned.level});
    }
    machine_.Assign(p, creation_start, items, tasks.task_level);
  }

  // ---- Phase 3: one work item ----

  void Execute(sim::Process& p, const PlanItem& item) {
    const sim::SimTime start = p.now();
    const JoinPlan::Pair& pair = plan_.pair(item.pair);
    ExecutePair(p, pair);
    if (trace_ != nullptr) {
      trace_->Span(p.id(), trace::Category::kTask, "task", start, p.now(),
                   pair.page_r, pair.page_s);
      task_duration_histogram_->Record(p.now() - start);
    }
  }

  // Charges one node pair exactly as matching it and refining its
  // candidates would; the results come from the plan.
  void ExecutePair(sim::Process& p, const JoinPlan::Pair& pair) {
    const size_t cpu = static_cast<size_t>(p.id());
    ProcessorStats& stats = machine_.stats(p);
    machine_.ChargeFetch(p, PageId{tree_r_.tree_id(), pair.page_r},
                         pair.level);
    machine_.ChargeFetch(p, PageId{tree_s_.tree_id(), pair.page_s},
                         pair.level);
    p.Advance(static_cast<sim::SimTime>(pair.entries_considered) *
                  config_.costs.cpu_per_entry_sorted +
              static_cast<sim::SimTime>(pair.pairs_tested) *
                  config_.costs.cpu_per_pair_tested);
    ++stats.node_pairs_processed;
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
      machine_.Push(p, children);
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
      ++stats.candidates;
      if (config_.use_second_filter) {
        // Second filter step: cheap section-MBR screening; a proven false
        // hit skips the expensive exact-geometry waiting period. The
        // section approximations live in the geometry clusters in the
        // paper's storage scheme, so their I/O rides along with the data
        // page access.
        p.Advance(static_cast<sim::SimTime>(candidate.filter_tests) *
                  config_.costs.cpu_per_pair_tested);
        if (!candidate.passes_filter) {
          ++stats.second_filter_eliminated;
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
      stats.refinement_time += refine_cost;
      if (candidate.is_answer) {
        ++stats.answers;
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

  // ---- Observability (null when tracing is disabled) ----
  trace::TraceSink* const trace_;
  trace::Histogram* task_duration_histogram_ = nullptr;

  SimMachine<PlanItem> machine_;

  // ---- Results ----
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> candidate_pairs_;
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> answer_pairs_;
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
  if (config.use_second_filter && config.second_filter_sections < 1) {
    return Status::InvalidArgument(
        "second_filter_sections must be at least 1");
  }
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
