#ifndef PSJ_SIM_SIMULATION_H_
#define PSJ_SIM_SIMULATION_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/access_registry.h"
#include "sim/fiber_context.h"
#include "trace/trace_sink.h"
#include "util/check.h"

namespace psj::sim {

/// Virtual time in microseconds. All cost constants of the paper's §4.2
/// (disk access 16 ms, data page + cluster 37.5 ms, refinement 2–18 ms, ...)
/// are expressed in this unit.
using SimTime = int64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1'000'000;

class Scheduler;

/// \brief Tie-break rule applied when several processes are ready at the
/// same virtual time.
///
/// The default dispatches in process-id order. The seeded mode replaces the
/// id with a seeded hash of it, reshuffling the dispatch order of
/// equal-time processes while leaving the time order untouched. Every
/// virtual-time observable of a well-annotated simulation must be
/// *invariant* under this permutation — the schedule-perturbation harness
/// (tests/perturbation_test.cc) runs the same experiment under many seeds
/// and asserts bit-identical results, which turns "results do not depend on
/// how equal-time ties are broken" into a tested property instead of an
/// assumption.
struct TieBreak {
  bool seeded = false;
  uint64_t seed = 0;

  /// Process-id order (the default rule).
  static TieBreak Id() { return TieBreak{}; }
  /// Seeded pseudo-random permutation of equal-time dispatch order.
  static TieBreak Seeded(uint64_t seed) { return TieBreak{true, seed}; }
  /// Resolves PSJ_SIM_TIEBREAK: unset or "id" → Id(), "seeded:<n>" with
  /// <n> one or more decimal digits (no sign, nothing after them, at most
  /// 2^64 − 1) → Seeded(n). Anything else warns once and falls back to
  /// Id().
  static TieBreak FromEnv();

  friend bool operator==(const TieBreak&, const TieBreak&) = default;
};

/// \brief A logical process (one simulated KSR1 processor) driven by the
/// Scheduler in virtual-time order.
///
/// The Scheduler lets exactly one process run at a time — the one with the
/// smallest virtual clock — so the simulation is deterministic and shared
/// C++ data structures (the shared virtual memory of the paper's platform)
/// can be accessed without data races.
///
/// A process accumulates CPU cost locally via Advance() without yielding
/// (*lookahead*); it must interact with shared simulation objects only
/// through primitives that first Sync(), which re-establishes global
/// virtual-time order.
class Process {
 public:
  enum class State { kCreated, kReady, kRunning, kBlocked, kFinished };

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Stable process id in [0, num_processes).
  int id() const { return id_; }

  /// The process's local virtual clock.
  SimTime now() const { return now_; }

  /// Adds local CPU time without yielding control (safe lookahead).
  void Advance(SimTime dt) {
    PSJ_CHECK_GE(dt, 0);
    now_ += dt;
  }

  /// Yields to the scheduler so that every process with an earlier clock
  /// runs first. Call (or use a primitive that calls it) before touching
  /// shared simulation state. When this process already holds the minimal
  /// (clock, id) among the ready set, the handoff is elided entirely — the
  /// scheduler would select it again immediately, so continuing inline
  /// preserves the schedule.
  void Sync() { YieldUntil(now_); }

  /// Advances the clock to max(now, t), yielding so earlier processes run.
  void WaitUntil(SimTime t) { YieldUntil(std::max(now_, t)); }

  /// Blocks until another process calls MakeReadyIfBlocked(). Returns the
  /// time at which the process was resumed.
  SimTime Block();

  /// If the process is blocked, makes it ready to resume at
  /// max(its clock, t). Must be called by the currently running process.
  /// Returns true if the process was blocked.
  bool MakeReadyIfBlocked(SimTime t);

  /// Virtual time at which the process body returned; valid once finished.
  SimTime finish_time() const {
    PSJ_CHECK(state_ == State::kFinished);
    return now_;
  }

  State state() const { return state_; }

  /// The scheduler's dispatch counter at the moment this process was last
  /// given control. Two accesses with the same epoch were made by one
  /// uninterrupted run of one process; the determinism analyzer records the
  /// epoch so a hazard report can tell whether the conflicting accesses
  /// were separated by a scheduling decision.
  int64_t dispatch_epoch() const;

  /// The triple deciding dispatch order among ready processes (ascending
  /// lexicographic). tiebreak_key equals the id under the default rule and
  /// a seeded hash of it under TieBreak::Seeded.
  struct DispatchOrderKey {
    SimTime resume_time;
    uint64_t tiebreak_key;
    int id;
  };
  DispatchOrderKey dispatch_order_key() const {
    return DispatchOrderKey{resume_time_, tiebreak_key_, id_};
  }

 private:
  friend class Scheduler;

  Process(Scheduler* scheduler, int id, std::function<void(Process&)> body);

  /// Parks this process with resume time `t` and hands control to the next
  /// ready process (or the scheduler); returns when selected again, with
  /// now_ == resume_time_.
  void YieldUntil(SimTime t);

  /// Runs the body on the process's fiber, from its first dispatch on.
  void FiberBody();
  static void FiberEntry(void* self);

  Scheduler* const scheduler_;
  const int id_;
  const std::function<void(Process&)> body_;
  State state_ = State::kCreated;
  SimTime now_ = 0;
  SimTime resume_time_ = 0;
  /// Orders this process among equal-resume_time peers: the id under the
  /// default tie-break, a seeded hash of it under TieBreak::Seeded.
  uint64_t tiebreak_key_ = 0;
  FiberContext fiber_;
};

/// \brief Deterministic discrete-event scheduler.
///
/// Owns the processes, runs them one at a time in (resume_time, id) order,
/// and detects deadlocks (all live processes blocked). The combination of
/// minimal-time scheduling and Sync()-before-shared-access yields
/// bit-reproducible experiments.
///
/// Dispatch is O(log P): ready processes live in a binary min-heap keyed by
/// (resume_time, id); finished processes never enter it and are therefore
/// never re-examined. Every process is a fiber (FiberContext) on the thread
/// that calls Run(), and a handoff switches straight from one fiber to the
/// next, so all scheduler state is single-threaded by construction.
class Scheduler {
 public:
  /// `tiebreak` std::nullopt resolves against PSJ_SIM_TIEBREAK (see
  /// TieBreak::FromEnv); an explicit value is used as given.
  explicit Scheduler(std::optional<TieBreak> tiebreak = std::nullopt);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates a process that will run `body`. All processes must be spawned
  /// before Run() is called.
  Process* Spawn(std::function<void(Process&)> body);

  /// Runs the simulation until every process has finished. Aborts via
  /// PSJ_CHECK on deadlock (some processes blocked, none ready), listing
  /// every live process's id, state and local clock.
  void Run();

  /// Virtual time of the last finishing process; valid after Run().
  SimTime end_time() const { return end_time_; }

  int num_processes() const { return static_cast<int>(processes_.size()); }
  Process* process(int id) { return processes_[static_cast<size_t>(id)].get(); }

  /// The tie-break rule dispatch decisions follow.
  const TieBreak& tiebreak() const { return tiebreak_; }

  // --- Introspection for tests and microbenchmarks ---

  /// Handoffs performed: how many times a process was popped from the
  /// ready heap and given control.
  int64_t num_dispatches() const { return num_dispatches_; }
  /// Yields elided by the min-clock fast path (no handoff happened).
  int64_t num_fast_path_yields() const { return num_fast_path_yields_; }

  /// Attaches an event sink (null disables tracing, the default). The
  /// scheduler emits a kProcess finish instant per process; must be set
  /// before Run().
  void set_trace(trace::TraceSink* trace) { trace_ = trace; }
  trace::TraceSink* trace() const { return trace_; }

 private:
  friend class Process;

  /// True (and counts the yield) when `p` may simply continue running
  /// because no ready process precedes (t, p->id). Never true for t in the
  /// past relative to the heap top.
  bool FastPathYield(const Process* p, SimTime t);
  void PushReady(Process* p);
  /// Pops the minimal ready process and marks it running.
  Process* TakeNextReady();
  /// Multi-line listing of every live process (deadlock diagnostic).
  std::string DescribeLiveProcesses() const;
  /// Hands control from `self` (already parked: re-queued, blocked, or
  /// finished) to the next ready fiber, or back to Run()'s context when
  /// the heap is empty. Returns when `self` is dispatched again.
  void DispatchFrom(Process* self);

  const TieBreak tiebreak_;
  std::vector<std::unique_ptr<Process>> processes_;
  /// Binary min-heap on (resume_time, id); contains exactly the kReady
  /// processes.
  std::vector<Process*> ready_heap_;
  FiberContext main_context_;  // Run()'s own context.
  int num_live_ = 0;
  bool started_ = false;
  SimTime end_time_ = 0;
  int64_t num_dispatches_ = 0;
  int64_t num_fast_path_yields_ = 0;
  trace::TraceSink* trace_ = nullptr;
};

/// Virtual-time breakdown of one Resource service, returned to the caller
/// so higher layers can attribute the queueing delay (e.g. per processor).
struct ResourceUse {
  SimTime arrival = 0;  // When the request was issued.
  SimTime start = 0;    // When service began: arrival + queue wait.
  SimTime end = 0;      // When service completed.

  SimTime queue_wait() const { return start - arrival; }
};

/// \brief A FIFO-served exclusive resource in virtual time — one disk of the
/// simulated disk array, in the paper's setup.
///
/// A process requesting service waits until the server is free, then holds
/// it for `duration`. Requests are served in the virtual-time order of their
/// arrival (processes Sync() on entry, so arrival order is well defined).
class Resource {
 public:
  explicit Resource(std::string name) : name_(std::move(name)) {}

  /// Performs one service of length `duration`: the calling process's clock
  /// ends at max(now, server_free) + duration. The returned breakdown lets
  /// the caller attribute the queueing delay.
  ResourceUse Use(Process& p, SimTime duration);

  /// Attaches an event sink; subsequent services emit a kDiskQueue span
  /// (when the request waited) and a kDiskService span on `track`, with the
  /// requester's process id as arg0.
  void BindTrace(trace::TraceSink* trace, int32_t track) {
    trace_ = trace;
    track_ = track;
  }

  /// Attaches the determinism analyzer (null — the default — detaches).
  /// Each service is an annotated write to the server's queue state: two
  /// requests arriving at the *same* virtual time are served in dispatch
  /// order, i.e. in tie-break order, and are reported as a hazard. Requests
  /// at distinct times are ordered by virtual time itself and are clean —
  /// this is also why a Resource *mediates* accesses performed strictly
  /// after a service: the requester's clock has provably advanced past
  /// every earlier user's service interval.
  void BindCheck(check::AccessRegistry* registry) { region_.Bind(registry); }

  const std::string& name() const { return name_; }
  int64_t num_uses() const { return num_uses_; }
  SimTime busy_time() const { return busy_time_; }
  /// Total virtual time requesters spent queued (not being served).
  SimTime queue_wait_time() const { return queue_wait_time_; }

 private:
  const std::string name_;
  SimTime next_free_ = 0;
  int64_t num_uses_ = 0;
  SimTime busy_time_ = 0;
  SimTime queue_wait_time_ = 0;
  trace::TraceSink* trace_ = nullptr;
  int32_t track_ = 0;
  check::Region region_{name_};
};

/// \brief Point-to-point message queue with delivery latency, used for the
/// task-reassignment protocol (idle processor asks a victim for part of its
/// work load).
///
/// Messages become visible `delay` after the virtual send time. The owner
/// polls with TryReceive() at its sync points or blocks in
/// BlockingReceive().
template <typename T>
class Mailbox {
 public:
  /// Binds the mailbox to the process that will receive from it.
  void BindOwner(Process* owner) { owner_ = owner; }

  /// Sends `msg` from `sender`; it is deliverable at sender.now() + delay.
  void Send(Process& sender, T msg, SimTime delay) {
    sender.Sync();
    const SimTime deliver_time = sender.now() + delay;
    queue_.push_back(Envelope{deliver_time, std::move(msg)});
    PSJ_CHECK(owner_ != nullptr);
    owner_->MakeReadyIfBlocked(deliver_time);
  }

  /// Returns a message already deliverable at the caller's current time, if
  /// any. The caller must be the owner.
  std::optional<T> TryReceive(Process& self) {
    self.Sync();
    if (!queue_.empty() && queue_.front().deliver_time <= self.now()) {
      T msg = std::move(queue_.front().payload);
      queue_.pop_front();
      return msg;
    }
    return std::nullopt;
  }

  /// Waits (in virtual time) until a message is deliverable and returns it.
  T BlockingReceive(Process& self) {
    self.Sync();
    for (;;) {
      if (!queue_.empty()) {
        if (queue_.front().deliver_time <= self.now()) {
          T msg = std::move(queue_.front().payload);
          queue_.pop_front();
          return msg;
        }
        self.WaitUntil(queue_.front().deliver_time);
        continue;
      }
      self.Block();
    }
  }

  bool empty() const { return queue_.empty(); }

 private:
  struct Envelope {
    SimTime deliver_time;
    T payload;
  };

  Process* owner_ = nullptr;
  std::deque<Envelope> queue_;
};

}  // namespace psj::sim

#endif  // PSJ_SIM_SIMULATION_H_
