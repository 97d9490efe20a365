#ifndef PSJ_NATIVE_WORK_POOL_H_
#define PSJ_NATIVE_WORK_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "core/workload.h"
#include "util/check.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace psj::native {

/// \brief Host-thread twin of the simulator's TaskPool: the shared work
/// queue of the dynamic assignment plus one per-worker PerLevelWorkload
/// (the engine-agnostic per-level deques of core/workload.h), with §3.4
/// work stealing — an idle worker surveys the others' loads, picks the most
/// loaded victim, and takes the back half of its highest non-empty level.
///
/// Synchronization replaces the simulator's virtual-time sync points with
/// one mutex per worker plus one for the shared queue; a worker's own
/// pop/push path contends only with a thief mid-steal. Termination is an
/// atomic count of unfinished items (queued + executing): a parent's
/// children are registered before the parent retires, so the count reaches
/// zero exactly once, when the join is complete.
///
/// Concurrency contract (checked by `-Wthread-safety` under the analyze
/// preset, see DESIGN.md §14): every deque is PSJ_GUARDED_BY its mutex;
/// `approx_size` and `pending_` are the only lock-free state, with the
/// memory orders documented at each use site.
template <typename Item>
class WorkStealingPool {
 public:
  WorkStealingPool(int num_workers, int num_levels)
      : num_workers_(num_workers) {
    PSJ_CHECK_GT(num_workers, 0);
    workers_.reserve(static_cast<size_t>(num_workers));
    for (int i = 0; i < num_workers; ++i) {
      workers_.push_back(std::make_unique<Worker>(num_levels));
    }
  }

  int num_workers() const { return num_workers_; }

  /// Static (contiguous-range) assignment, as the paper's lsr: the first
  /// m mod n workers receive ceil(m/n) consecutive tasks in plane-sweep
  /// order. Single-threaded setup — call before the workers start — but the
  /// locks are taken anyway: they are uncontended (cheap) and keep the
  /// guarded-member annotations unconditional.
  void AssignStatic(const std::vector<Item>& tasks) {
    const size_t n = static_cast<size_t>(num_workers_);
    const size_t m = tasks.size();
    const size_t base = m / n;
    const size_t extra = m % n;
    size_t next = 0;
    for (size_t w = 0; w < n; ++w) {
      const size_t count = base + (w < extra ? 1 : 0);
      util::MutexLock lock(&workers_[w]->mu);
      for (size_t k = 0; k < count && next < m; ++k) {
        workers_[w]->workload.PushOne(tasks[next++]);
      }
      // order: relaxed — a stale survey value only mis-ranks steal victims;
      // the workload itself is published by the mutex.
      workers_[w]->approx_size.store(workers_[w]->workload.size(),
                                     std::memory_order_relaxed);
    }
    // order: relaxed — workers have not started; std::thread creation
    // synchronizes-with their first read of pending_.
    pending_.store(static_cast<int64_t>(m), std::memory_order_relaxed);
  }

  /// Dynamic assignment: all tasks enter the shared queue, workers pull
  /// task by task (§3.3 gd). Single-threaded setup (locked anyway; see
  /// AssignStatic).
  void AssignShared(const std::vector<Item>& tasks) {
    {
      util::MutexLock lock(&shared_mu_);
      shared_.assign(tasks.begin(), tasks.end());
    }
    // order: relaxed — pre-thread-start publication (see AssignStatic).
    pending_.store(static_cast<int64_t>(tasks.size()),
                   std::memory_order_relaxed);
  }

  /// Next item for `worker`: own workload (lowest level first, preserving
  /// plane-sweep order), then the shared queue. The caller must call
  /// FinishItem() once the item — including registering its children — is
  /// done.
  std::optional<Item> Next(int worker) {
    Worker& w = *workers_[static_cast<size_t>(worker)];
    {
      util::MutexLock lock(&w.mu);
      std::optional<Item> item = w.workload.PopNext();
      if (item.has_value()) {
        // order: relaxed — survey hint only (see approx_size).
        w.approx_size.store(w.workload.size(), std::memory_order_relaxed);
        return item;
      }
    }
    util::MutexLock lock(&shared_mu_);
    if (shared_.empty()) {
      return std::nullopt;
    }
    Item item = shared_.front();
    shared_.pop_front();
    return item;
  }

  /// Registers child work produced while executing an item. Must run
  /// before FinishItem() for that item, so `pending` never dips to zero
  /// while work is still being created.
  void PushChildren(int worker, const std::vector<Item>& children) {
    if (children.empty()) {
      return;
    }
    // order: relaxed — the count cannot be observed at zero early because
    // the parent item is still unfinished (program order on this thread
    // puts this increment before the parent's release decrement), and the
    // items themselves are published by the worker mutex below.
    pending_.fetch_add(static_cast<int64_t>(children.size()),
                       std::memory_order_relaxed);
    Worker& w = *workers_[static_cast<size_t>(worker)];
    util::MutexLock lock(&w.mu);
    w.workload.Push(children);
    // order: relaxed — survey hint only (see approx_size).
    w.approx_size.store(w.workload.size(), std::memory_order_relaxed);
  }

  /// Declares one previously obtained item complete.
  void FinishItem() {
    // order: release — pairs with the acquire load in Done(): a worker that
    // observes pending_ == 0 sees every write made while executing the
    // finished items (release sequence headed by each RMW). The decrementer
    // itself needs no acquire, which is why this is not acq_rel.
    pending_.fetch_sub(1, std::memory_order_release);
  }

  /// True once every assigned item (and all its transitive children) has
  /// been finished.
  bool Done() const {
    // order: acquire — pairs with the release fetch_sub in FinishItem() so
    // the observer of zero sees all finished items' effects.
    return pending_.load(std::memory_order_acquire) == 0;
  }

  /// One §3.4 reassignment attempt: survey the other workers' (approximate)
  /// loads, lock the most loaded victim, take the back half of its highest
  /// non-empty level into `worker`'s own workload. Returns the number of
  /// items obtained (0 when no victim had stealable work).
  size_t TrySteal(int worker) {
    int victim = -1;
    int64_t victim_size = 0;
    for (int q = 0; q < num_workers_; ++q) {
      if (q == worker) continue;
      // order: relaxed — survey hint; StealHalf re-checks under the lock.
      const int64_t size =
          workers_[static_cast<size_t>(q)]->approx_size.load(
              std::memory_order_relaxed);
      if (size > victim_size) {
        victim = q;
        victim_size = size;
      }
    }
    if (victim < 0) {
      return 0;
    }
    std::vector<Item> stolen;
    {
      Worker& v = *workers_[static_cast<size_t>(victim)];
      util::MutexLock lock(&v.mu);
      stolen = v.workload.StealHalf(0);
      // order: relaxed — survey hint only (see approx_size).
      v.approx_size.store(v.workload.size(), std::memory_order_relaxed);
    }
    if (stolen.empty()) {
      return 0;
    }
    Worker& w = *workers_[static_cast<size_t>(worker)];
    util::MutexLock lock(&w.mu);
    w.workload.Push(stolen);
    // order: relaxed — survey hint only (see approx_size).
    w.approx_size.store(w.workload.size(), std::memory_order_relaxed);
    return stolen.size();
  }

  // -- Locked introspection (tests and the annotations_compile_fail suite) --

  /// The shared-queue capability, so callers can lock before reading the
  /// queue through SharedQueueLocked(). PSJ_RETURN_CAPABILITY ties the
  /// returned reference to shared_mu_ in the static analysis.
  util::Mutex& shared_mutex() PSJ_RETURN_CAPABILITY(shared_mu_) {
    return shared_mu_;
  }

  /// The dynamic-assignment queue; callers must hold shared_mutex(). Under
  /// the analyze preset an unlocked call is a compile error — this is the
  /// seeded-violation surface of tests/annotations_compile_fail/.
  const std::deque<Item>& SharedQueueLocked() const PSJ_REQUIRES(shared_mu_) {
    return shared_;
  }

 private:
  struct Worker {
    explicit Worker(int num_levels) : workload(num_levels) {}
    util::Mutex mu;
    PerLevelWorkload<Item> workload PSJ_GUARDED_BY(mu);
    /// Load report for lock-free victim surveys; refreshed under mu after
    /// every workload change. Staleness only mis-ranks victims, never
    /// breaks correctness — StealHalf re-checks under the lock.
    std::atomic<int64_t> approx_size{0};
  };

  const int num_workers_;
  std::vector<std::unique_ptr<Worker>> workers_;
  util::Mutex shared_mu_;
  std::deque<Item> shared_ PSJ_GUARDED_BY(shared_mu_);
  /// Unfinished items (queued + executing); zero exactly once, at join
  /// completion. Orders: relaxed increments (PushChildren — protected by
  /// the parent's pending count), release decrements (FinishItem), acquire
  /// observation (Done).
  std::atomic<int64_t> pending_{0};
};

}  // namespace psj::native

#endif  // PSJ_NATIVE_WORK_POOL_H_
