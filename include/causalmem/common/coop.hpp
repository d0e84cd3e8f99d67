// Cooperative-wait seam for deterministic simulation (sim/scheduler.hpp).
//
// Blocking sites in the protocol code (future waits, flush fences, spin
// loops) normally block their OS thread. Under the simulation scheduler
// every task is a fiber on the scheduler's own thread and exactly one runs
// at a time, so those sites must instead hand control back to the scheduler
// and declare what they are waiting for.
// This header is that seam: a process-global Parker hook, mirroring the
// obs::ClockSource seam, that lives in causalmem_common so the dsm layer
// needs no link-time dependency on the sim library.
//
// Contract for park():
//   - call only with no locks held that `ready` or any other task/handler
//     may take (`ready` is evaluated on the scheduler's stack, between
//     steps; tasks share one OS thread, so a lock held across a park
//     deadlocks the run);
//   - `ready` must be a pure predicate over shared state (no side effects);
//   - `deadline_ns` is VIRTUAL time (obs::now_ns()); 0 means no deadline;
//   - park returns when `ready()` held, or virtual time reached the
//     deadline, whichever the scheduler observes first.
//   - An EMPTY `ready` means "until woken": the task waits for a
//     wake(token) naming it (token from self()), or for its deadline. The
//     scheduler then tests nothing per step, so waits whose condition
//     changes only at one known place (a reply slot being filled) should
//     record self() there and park this way. A wake that reaches the task
//     before it parks (while it runs) is kept until the task next
//     resumes, so no wake-up is lost between registering and parking.
//     Wakes are ignored while a task is parked on a predicate.
//
// When no parker is installed (every non-simulated run) park()/yield()
// return false and the call site falls back to its real blocking
// primitive; self() is kNoTask there, and wake(kNoTask) does nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace causalmem::coop {

/// Opaque handle of one parker-managed task, for wake().
enum class TaskToken : std::uint32_t {};
/// What self() returns outside a managed task.
inline constexpr TaskToken kNoTask{~std::uint32_t{0}};

class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;
  virtual ~Parker() = default;

  /// Parks the calling task until `ready()` holds (or, with an empty
  /// `ready`, until it is woken) or virtual time reaches `deadline_ns`
  /// (0 = no deadline). Must only be called from inside a task the parker
  /// manages (in_task() true).
  virtual void park(const std::function<bool()>& ready,
                    std::uint64_t deadline_ns, const char* what) = 0;

  /// The calling task's token; kNoTask when in_task() is false.
  [[nodiscard]] virtual TaskToken self() const noexcept = 0;

  /// Wakes task `t` (never kNoTask): see the empty-`ready` contract above.
  virtual void wake(TaskToken t) = 0;

  /// True when the caller is running inside a task this parker schedules.
  /// Everything else (the scheduler's own code, message handlers and timers
  /// it runs, and any other thread) must keep using real blocking
  /// primitives.
  [[nodiscard]] virtual bool in_task() const noexcept = 0;
};

namespace detail {
inline std::atomic<Parker*> g_parker{nullptr};
}  // namespace detail

/// Installs `parker` as the global cooperative-wait hook; nullptr removes
/// it. Install before simulated tasks start, remove after they finish.
inline void set_parker(Parker* parker) noexcept {
  detail::g_parker.store(parker, std::memory_order_release);
}

[[nodiscard]] inline Parker* current() noexcept {
  return detail::g_parker.load(std::memory_order_acquire);
}

/// True when the caller is a simulation-managed task. One atomic load on
/// the disabled path — cheap enough for every blocking site.
[[nodiscard]] inline bool enabled() noexcept {
  Parker* p = current();
  return p != nullptr && p->in_task();
}

/// Parks through the installed hook. Returns false (without blocking) when
/// no parker is installed or the caller is not a managed task — the call
/// site then uses its normal blocking primitive.
inline bool park(const std::function<bool()>& ready, std::uint64_t deadline_ns,
                 const char* what) {
  Parker* p = current();
  if (p == nullptr || !p->in_task()) return false;
  p->park(ready, deadline_ns, what);
  return true;
}

/// The calling task's token, for a later wake(); kNoTask when the caller is
/// not a managed task.
[[nodiscard]] inline TaskToken self() noexcept {
  Parker* p = current();
  return p == nullptr ? kNoTask : p->self();
}

/// Wakes the task `t` parked (or about to park) with an empty `ready`. One
/// compare when `t` is kNoTask, as every wait outside a simulation records.
inline void wake(TaskToken t) {
  if (t == kNoTask) return;
  if (Parker* p = current()) p->wake(t);
}

/// Cooperative yield: gives the scheduler a choice point without a wait
/// condition (the task wakes itself, so it is immediately runnable again).
/// Returns false when not running under a parker.
inline bool yield() {
  Parker* p = current();
  if (p == nullptr || !p->in_task()) return false;
  p->wake(p->self());
  p->park({}, 0, "yield");
  return true;
}

}  // namespace causalmem::coop
