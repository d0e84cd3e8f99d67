// SimScheduler: single-threaded deterministic simulation of a DsmSystem.
//
// Message delivery, per-node application steps and timer expiry are events
// in one scheduler-controlled loop, all on the thread that calls run().
// Application workloads run as cooperative tasks: each is a fiber with its
// own stack on that same thread, so exactly one logical thread (one task,
// or the scheduler itself) executes at any moment — the scheduler switches
// into a task, the task runs until it parks on a wait condition
// (coop::park — reply waits, flush fences, yields) or finishes, and
// control switches back. Message handlers and timers run on the scheduler's
// own stack during deliver and timer events. Under this discipline every
// mutex in the protocol stack is uncontended and every execution is a pure
// function of the choice sequence (the Schedule).
//
// Time is virtual: the scheduler owns an obs::FakeClock installed as the
// global clock source. Each executed event advances it by a fixed tick;
// when no event is runnable the clock jumps to the earliest parked-task
// deadline or timer due-time, so request timeouts and failover suspicion
// fire deterministically. If nothing can ever run, the run reports a
// deadlock with a per-task diagnosis instead of hanging.
//
// A Strategy chooses among the runnable events each step; see
// sim/explorer.hpp for the search strategies built on top. A step costs what
// changed since the last one: the transport keeps the deliver choices of its
// channels and the scheduler the step choices of its runnable tasks, each
// updated as messages move and tasks park, finish or are woken
// (coop::wake). Only tasks parked on a predicate or a deadline are re-tested
// every step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "causalmem/common/coop.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/sim/schedule.hpp"

namespace causalmem::sim {

class SimTransport;

/// Picks the next event to execute. `choices` is non-empty and
/// deterministically ordered (deliverable channels by (from, to), then
/// runnable tasks by index, then due timers by index).
class Strategy {
 public:
  /// Returned instead of an index to abort the run (RunReport.error is then
  /// taken from error_message()).
  static constexpr std::size_t kAbort = static_cast<std::size_t>(-1);

  Strategy() = default;
  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::size_t pick(const std::vector<Choice>& choices) = 0;

  /// Diagnostic for a kAbort return.
  [[nodiscard]] virtual std::string error_message() const { return {}; }
};

/// Canonical schedule: always the first runnable event.
class FirstChoiceStrategy final : public Strategy {
 public:
  std::size_t pick(const std::vector<Choice>& choices) override {
    (void)choices;
    return 0;
  }
};

/// Seeded uniform random walk over the runnable set. Same seed + same
/// scenario => bit-identical execution (determinism_test.cpp enforces it).
class RandomWalkStrategy final : public Strategy {
 public:
  explicit RandomWalkStrategy(std::uint64_t seed) : rng_(seed) {}

  std::size_t pick(const std::vector<Choice>& choices) override {
    return static_cast<std::size_t>(rng_.next_below(choices.size()));
  }

 private:
  Rng rng_;
};

/// Replays a recorded schedule by content: each recorded step must match a
/// currently runnable choice (kind + ids) or the run aborts with a
/// divergence diagnostic. After the recorded steps are exhausted the
/// strategy continues canonically (index 0), so a minimized prefix plus
/// canonical tail is a complete reproduction recipe.
class ReplayStrategy final : public Strategy {
 public:
  explicit ReplayStrategy(Schedule schedule) : schedule_(std::move(schedule)) {}

  std::size_t pick(const std::vector<Choice>& choices) override;
  [[nodiscard]] std::string error_message() const override { return error_; }

  /// Steps of the recorded schedule consumed so far.
  [[nodiscard]] std::size_t position() const noexcept { return pos_; }

 private:
  Schedule schedule_;
  std::size_t pos_{0};
  std::string error_;
};

struct SimOptions {
  /// Virtual epoch. Non-zero so "timestamp 0" stays distinguishable.
  std::uint64_t start_ns{1'000'000'000ULL};
  /// Virtual time added after every executed event. Keeps timestamps
  /// distinct (traces, histories) while staying far below protocol
  /// timeouts; deadlines still fire via forced advancement.
  std::uint64_t event_tick_ns{1'000};
  /// Abort guard against runaway schedules (livelocks under random walk).
  std::uint64_t max_steps{1'000'000};
};

/// Outcome of one simulated execution.
struct RunReport {
  /// Every task finished and no message was left undelivered.
  bool completed{false};
  /// No event was runnable, no deadline or timer could advance time, and
  /// unfinished tasks remained: `error` carries the per-task diagnosis.
  bool deadlocked{false};
  std::string error;
  std::uint64_t steps{0};
  std::uint64_t end_ns{0};  ///< virtual time when the run ended
  Schedule schedule;        ///< executed choices, in order
  /// Search bookkeeping, parallel to schedule.steps: how many choices were
  /// runnable at each step, and which index was taken (explorer input).
  std::vector<std::size_t> branching;
  std::vector<std::size_t> chosen;

  [[nodiscard]] bool ok() const noexcept { return completed && error.empty(); }
};

/// The deterministic simulation scheduler. Construction installs the
/// virtual clock and the coop parker process-globally (and the destructor
/// removes them), so exactly one SimScheduler may exist at a time; build
/// the scheduler first, then the DsmSystem(s) under test, then run().
class SimScheduler final : public coop::Parker {
 public:
  /// Stack available to each task body; the page below it is a guard, so a
  /// body that needs more faults instead of writing into another stack.
  /// Stack high-water marks over the simulator, scale and sim-driven dsm
  /// suites are 5-6 KB optimised and 11 KB under ASan Debug, and only
  /// touched pages count toward RSS. Stacks are reused: run() hands each
  /// back to a process-wide pool (the guard stays), and a task's first
  /// resume takes one from there before mapping anew.
  static constexpr std::size_t kTaskStackBytes = std::size_t{256} * 1024;
  /// The top of a pooled stack that stays resident between runs: more than
  /// any high-water mark above, so a reused stack's first resume takes no
  /// page fault. The pages below it are released when the stack is pooled.
  static constexpr std::size_t kWarmStackBytes = std::size_t{16} * 1024;

  explicit SimScheduler(SimOptions options = {});
  ~SimScheduler() override;

  /// Registers a cooperative task (one application workload). Call before
  /// run(). Returns the task index (the `actor` of its step choices). The
  /// task gets its stack when run() first resumes it.
  std::uint32_t add_task(std::string name, std::function<void()> body);

  /// Registers a timer firing at virtual `due_ns`, then every `period_ns`
  /// (0 = one-shot). `fire` runs on the scheduler thread and must not
  /// block; blocking chaos (a node restart's rejoin) belongs in a task.
  /// Inline for the same reason as attach_transport: DsmSystem's sim branch
  /// calls it from a header template.
  std::uint32_t add_timer(std::string name, std::uint64_t due_ns,
                          std::uint64_t period_ns,
                          std::function<void()> fire) {
    CM_EXPECTS_MSG(!ran_, "add_timer after run()");
    CM_EXPECTS(fire != nullptr);
    timers_.push_back(Timer{std::move(name), {}, due_ns, period_ns,
                            std::move(fire), /*done=*/false});
    return static_cast<std::uint32_t>(timers_.size() - 1);
  }

  /// Called by SimTransport's constructor; at most one transport per
  /// scheduler. Inline so the header-only SimTransport needs no sim-library
  /// symbol.
  void attach_transport(SimTransport* transport) {
    CM_EXPECTS_MSG(transport_ == nullptr, "scheduler already has a transport");
    CM_EXPECTS(transport != nullptr);
    transport_ = transport;
  }

  /// Executes the simulation to completion under `strategy`, running every
  /// task as a fiber on the calling thread. One run per scheduler instance.
  /// On return no task is parked (an unfinished run unwinds each one) and
  /// every task stack is back in the pool.
  RunReport run(Strategy& strategy);

  [[nodiscard]] std::uint64_t now_ns() const noexcept {
    return clock_.now_ns();
  }

  // coop::Parker ----------------------------------------------------------
  void park(const std::function<bool()>& ready, std::uint64_t deadline_ns,
            const char* what) override;
  /// True only on the thread inside run() while a task's fiber executes:
  /// deliver handlers, timers and threads a task starts see false.
  [[nodiscard]] bool in_task() const noexcept override;
  /// The running task's index as a token.
  [[nodiscard]] coop::TaskToken self() const noexcept override;
  void wake(coop::TaskToken t) override;

 private:
  /// One cooperative task: its body, its wait condition while parked, and
  /// its fiber (defined in scheduler.cpp, which owns the context switch).
  struct Task;

  struct Timer {
    std::string name;
    std::string_view label;  ///< interned `name`, set when run() starts
    std::uint64_t due_ns{0};
    std::uint64_t period_ns{0};
    std::function<void()> fire;
    bool done{false};
  };

  /// Thrown into parked tasks when the run aborts; task wrappers swallow it.
  struct TaskAbort {};

  /// Adds or removes `t`'s step choice in task_choices_.
  void list_task(Task& t, bool runnable);
  void collect_choices(std::vector<Choice>* out);
  void execute(const Choice& c, std::size_t idx);
  void resume_task(Task& t);
  static void fiber_entry() noexcept;
  void abort_tasks();
  [[nodiscard]] std::string deadlock_diagnosis() const;

  SimOptions opt_;
  // mutable: ClockSource::now_ns() is a non-const virtual (it can be a real
  // clock read), but FakeClock's is a relaxed load — logically const.
  mutable obs::FakeClock clock_;
  SimTransport* transport_{nullptr};
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Timer> timers_;

  /// The task whose fiber is executing; nullptr while the scheduler's own
  /// stack runs (between steps, and inside deliver and timer events).
  Task* current_{nullptr};
  std::size_t unfinished_{0};  ///< tasks not yet finished, during run()
  /// The step choices of the runnable tasks, in task order, kept current as
  /// tasks start, park, finish and are woken; a step copies it instead of
  /// testing every task. Only the tasks in polled_ (parked on a predicate
  /// or a deadline) are re-tested each step.
  std::vector<Choice> task_choices_;
  std::vector<Task*> polled_;
  bool aborting_{false};
  bool ran_{false};
};

}  // namespace causalmem::sim
