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
//
// When no parker is installed (every non-simulated run) park()/yield()
// return false and the call site falls back to its real blocking primitive.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace causalmem::coop {

class Parker {
 public:
  Parker() = default;
  Parker(const Parker&) = delete;
  Parker& operator=(const Parker&) = delete;
  virtual ~Parker() = default;

  /// Parks the calling task until `ready()` holds or virtual time reaches
  /// `deadline_ns` (0 = no deadline). Must only be called from inside a
  /// task the parker manages (in_task() true).
  virtual void park(const std::function<bool()>& ready,
                    std::uint64_t deadline_ns, const char* what) = 0;

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

/// Cooperative yield: gives the scheduler a choice point without a wait
/// condition (the task is immediately runnable again). Returns false when
/// not running under a parker.
inline bool yield() {
  return park([] { return true; }, 0, "yield");
}

}  // namespace causalmem::coop
