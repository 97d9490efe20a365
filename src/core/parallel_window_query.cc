#include "core/parallel_window_query.h"

#include <algorithm>
#include <deque>
#include <span>
#include <vector>

#include "core/sim_machine.h"
#include "core/workload.h"
#include "geo/node_scan.h"

namespace psj {

namespace {

/// One simulated window-query run on the simulated machine, with single
/// subtrees as work items.
class WindowQueryDriver {
 public:
  WindowQueryDriver(const RStarTree& tree, const ObjectStore* objects,
                    const Rect& window, const WindowQueryConfig& config)
      : tree_(tree),
        cache_(tree.sealed()),
        objects_(objects),
        window_(window),
        config_(config),
        machine_("window_query", {&tree}, config, /*trace=*/nullptr) {
    const auto n = static_cast<size_t>(config_.num_processors);
    candidate_ids_.resize(n);
    answer_ids_.resize(n);
    filter_hits_.resize(n);
  }

  WindowQueryResult Run() {
    WindowQueryResult result;
    result.stats = machine_.Run(
        [this](sim::Process& p) { CreateTasks(p); },
        [this](sim::Process& p, const PageTask& task) {
          ExecuteTask(p, task);
        });
    if (config_.collect_ids) {
      for (auto& ids : candidate_ids_) {
        result.candidate_ids.insert(result.candidate_ids.end(), ids.begin(),
                                    ids.end());
      }
      for (auto& ids : answer_ids_) {
        result.answer_ids.insert(result.answer_ids.end(), ids.begin(),
                                 ids.end());
      }
    }
    return result;
  }

 private:
  /// Phase 1 on processor 0: subtrees intersecting the window, in
  /// plane-sweep (xl) order, descending while there are too few tasks.
  void CreateTasks(sim::Process& p) {
    const sim::SimTime creation_start = p.now();
    std::deque<PageTask> frontier;
    frontier.push_back(PageTask{tree_.root_page(),
                                static_cast<int16_t>(tree_.height() - 1)});
    const auto needed = static_cast<size_t>(
        config_.task_creation_factor *
        static_cast<double>(config_.num_processors));
    // The root itself always descends one level (a single task is no
    // parallelism); data level stops the descent.
    while (!frontier.empty() && frontier.front().level > 0 &&
           frontier.size() < std::max<size_t>(needed, 2)) {
      std::deque<PageTask> next;
      for (const PageTask& task : frontier) {
        const NodeSoAView node = FetchNode(p, task);
        for (const uint32_t k : ChildOrderByXl(node)) {
          p.Advance(config_.costs.cpu_per_pair_tested);
          if (node.rects.rect(k).Intersects(window_)) {
            next.push_back(PageTask{node.child_page(k),
                                    static_cast<int16_t>(task.level - 1)});
          }
        }
      }
      frontier = std::move(next);
    }
    const std::vector<PageTask> tasks(frontier.begin(), frontier.end());
    machine_.Assign(p, creation_start, tasks,
                    tasks.empty() ? 0 : tasks.front().level);
  }

  // Window filter over a node's planes: hit indices, ascending — the same
  // order as the scalar entry loop. Scratch is per simulated processor:
  // the data-page loop holds the result across p.Sync(), where other
  // processors' coroutines run their own filters.
  std::span<const uint32_t> FilterEntries(size_t cpu, const NodeSoAView& node) {
    ScanIntersecting(node.rects, window_, &filter_hits_[cpu]);
    return filter_hits_[cpu];
  }

  void ExecuteTask(sim::Process& p, const PageTask& task) {
    const size_t cpu = static_cast<size_t>(p.id());
    ProcessorStats& stats = machine_.stats(p);
    const NodeSoAView node = FetchNode(p, task);
    p.Advance(static_cast<sim::SimTime>(node.size()) *
              config_.costs.cpu_per_pair_tested);
    ++stats.node_pairs_processed;

    if (task.level > 0) {
      std::vector<PageTask> children;
      for (const uint32_t k : FilterEntries(cpu, node)) {
        children.push_back(PageTask{node.child_page(k),
                                    static_cast<int16_t>(task.level - 1)});
      }
      machine_.Push(p, children);
      return;
    }

    // Data page: every entry whose MBR intersects the window is a
    // candidate; the refinement test against the window geometry is
    // charged per the overlap-degree waiting-period model.
    for (const uint32_t k : FilterEntries(cpu, node)) {
      const uint64_t id = node.ids[k];
      const sim::SimTime refine_cost =
          config_.costs.RefinementCost(node.rects.rect(k), window_);
      p.Advance(refine_cost);
      stats.refinement_time += refine_cost;
      ++stats.candidates;
      bool is_answer = false;
      if (config_.compute_answers) {
        is_answer = objects_->Get(id).geometry.IntersectsRect(window_);
        if (is_answer) {
          ++stats.answers;
        }
      }
      if (config_.collect_ids) {
        candidate_ids_[cpu].push_back(id);
        if (is_answer) {
          answer_ids_[cpu].push_back(id);
        }
      }
      p.Sync();
    }
  }

  NodeSoAView FetchNode(sim::Process& p, const PageTask& task) {
    machine_.ChargeFetch(p, PageId{tree_.tree_id(), task.page}, task.level);
    return cache_.view(task.page);
  }

  const RStarTree& tree_;
  const NodeSoACache& cache_;
  const ObjectStore* objects_;
  const Rect window_;
  const WindowQueryConfig& config_;

  SimMachine<PageTask> machine_;
  std::vector<std::vector<uint32_t>> filter_hits_;

  std::vector<std::vector<uint64_t>> candidate_ids_;
  std::vector<std::vector<uint64_t>> answer_ids_;
};

}  // namespace

ParallelWindowQuery::ParallelWindowQuery(const RStarTree* tree,
                                         const ObjectStore* objects)
    : tree_(tree), objects_(objects) {
  PSJ_CHECK(tree != nullptr);
}

StatusOr<WindowQueryResult> ParallelWindowQuery::Run(
    const Rect& window, const WindowQueryConfig& config) const {
  PSJ_RETURN_IF_ERROR(config.Validate());
  if (!window.IsValid()) {
    return Status::InvalidArgument("invalid window rectangle");
  }
  if (config.compute_answers && objects_ == nullptr) {
    return Status::InvalidArgument(
        "compute_answers requires the object store");
  }
  if (tree_->soa() == nullptr) {
    return Status::FailedPrecondition(
        "the window query reads a sealed tree; call RStarTree::Seal() first");
  }
  WindowQueryDriver driver(*tree_, objects_, window, config);
  return driver.Run();
}

}  // namespace psj
