#ifndef PSJ_SIM_FIBER_CONTEXT_H_
#define PSJ_SIM_FIBER_CONTEXT_H_

#include <memory>

namespace psj::sim {

/// \brief One stackful user-mode execution context (a fiber).
///
/// The simulation scheduler's execution substrate: each simulated processor
/// owns a FiberContext and control moves between them with a user-space
/// register switch (tens of nanoseconds) instead of an OS-thread handoff.
///
/// Two flavors exist:
///  - the *main* context (default constructor): adopts the calling thread's
///    stack; it is the context Scheduler::Run() executes on;
///  - a *fiber* context (entry constructor): owns a freshly allocated
///    256 KiB stack and starts executing `entry(arg)` the first time it is
///    switched to. The entry function must never return — it must switch
///    away to another context instead (the simulation switches out of a
///    finished process and never resumes it).
///
/// All contexts that switch among each other must live on the same OS
/// thread. Nothing here is thread safe; the scheduler's single-runner
/// discipline is the synchronization.
///
/// On x86-64 Linux the switch is a handful of inline-assembly instructions
/// that save/restore the callee-saved registers — no syscalls at all
/// (ucontext's swapcontext would issue two sigprocmask calls per switch).
/// Other POSIX platforms fall back to ucontext. Both implementations tell
/// ASan and TSan about every switch, so the sanitizer builds run the same
/// substrate as every other build.
class FiberContext {
 public:
  /// Adopts the calling thread's current stack as the main context. Only
  /// valid as a switch *target* after some fiber switched away from it.
  FiberContext();

  /// Creates a suspended fiber with an owned stack that will run
  /// `entry(arg)` when first switched to.
  FiberContext(void (*entry)(void*), void* arg);

  ~FiberContext();

  FiberContext(const FiberContext&) = delete;
  FiberContext& operator=(const FiberContext&) = delete;

  /// Suspends the calling context — which must be *this* — and resumes
  /// `to`. Returns when some other context switches back to *this*.
  void SwitchTo(FiberContext& to);

  /// Implementation state; public only so the extern "C" entry trampoline
  /// in fiber_context.cc can name it.
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace psj::sim

#endif  // PSJ_SIM_FIBER_CONTEXT_H_
