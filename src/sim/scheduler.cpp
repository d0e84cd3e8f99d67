#include "causalmem/sim/scheduler.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <sstream>

#include "causalmem/sim/transport.hpp"

// Sanitizers must be told about every stack switch: ASan tracks which stack
// is current (without it, TaskAbort thrown on a fiber trips its no-return
// check), and TSan keeps one happens-before clock per fiber. Selected at
// compile time; plain builds compile none of it.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CAUSALMEM_SIM_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define CAUSALMEM_SIM_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define CAUSALMEM_SIM_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define CAUSALMEM_SIM_TSAN 1
#endif
#if defined(CAUSALMEM_SIM_ASAN)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(CAUSALMEM_SIM_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "causalmem_fiber_switch (src/sim/scheduler.cpp) is x86-64 System V only; port it to this architecture"
#endif

// Saves the calling side's callee-saved registers, MXCSR and x87 control
// word on its own stack, stores its stack pointer in *save_sp, loads
// load_sp (a stack saved by an earlier switch, or one seeded by
// fiber_start) and returns into the side that stack belongs to. No signal
// mask is saved or restored: no task changes it, and leaving it alone
// spares each switch the rt_sigprocmask system call that glibc's context
// functions make.
// Out of line, so the compiler treats every switch as an opaque call that
// clobbers the caller-saved registers and any memory. It does not move a
// CET shadow stack: a process running with user shadow stacks enabled
// cannot use it.
extern "C" void causalmem_fiber_switch(void** save_sp, void* load_sp);
asm(R"(
  .pushsection .text
  .globl causalmem_fiber_switch
  .hidden causalmem_fiber_switch
  .type causalmem_fiber_switch, @function
  .p2align 4
causalmem_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size causalmem_fiber_switch, .-causalmem_fiber_switch
  .popsection
)");

namespace causalmem::sim {

namespace {

// The scheduler whose run() is executing on this thread. in_task() checks
// it first, so threads outside run() never read the scheduler's state.
thread_local SimScheduler* tl_sched = nullptr;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

/// Stacks no task holds, shared by every scheduler in the process (one runs
/// at a time, but successive ones may run on different threads). Mapping,
/// guarding and unmapping a stack per task per run cost more than a short
/// task's work; a pooled stack keeps its mapping and guard page, and only
/// its pages are given back.
class StackPool {
 public:
  StackPool() = default;
  StackPool(const StackPool&) = delete;
  StackPool& operator=(const StackPool&) = delete;
  ~StackPool() {
    for (void* map : free_) munmap(map, map_bytes());
  }

  /// A guard page followed by kTaskStackBytes of stack: pooled if any,
  /// otherwise freshly mapped.
  void* take() {
    {
      std::scoped_lock lock(mu_);
      if (!free_.empty()) {
        void* map = free_.back();
        free_.pop_back();
        return map;
      }
    }
    void* map = mmap(nullptr, map_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    CM_ASSERT_MSG(map != MAP_FAILED, "mmap of a task stack failed");
    const int guarded = mprotect(map, page_bytes(), PROT_NONE);
    CM_ASSERT_MSG(guarded == 0, "mprotect of a stack guard page failed");
    return map;
  }

  /// Takes back a stack no fiber runs on. Its pages below the top
  /// kWarmStackBytes are released: only a task that ran deep touched them.
  /// The top stays resident, so the next task's first resume on the stack
  /// takes no page fault.
  void give_back(void* map) noexcept {
    (void)madvise(static_cast<char*>(map) + page_bytes(),
                  SimScheduler::kTaskStackBytes - SimScheduler::kWarmStackBytes,
                  MADV_DONTNEED);
    std::scoped_lock lock(mu_);
    free_.push_back(map);
  }

 private:
  static std::size_t map_bytes() {
    return page_bytes() + SimScheduler::kTaskStackBytes;
  }

  std::mutex mu_;
  std::vector<void*> free_;  ///< guarded by mu_
};

StackPool g_stacks;

/// A task's execution context: a pooled stack whose lowest page is a
/// PROT_NONE guard (an overflow faults instead of writing into a
/// neighbour), and the saved stack pointers of both sides of the switch
/// (each side's registers are saved on its own stack).
struct Fiber {
  void* map{nullptr};  ///< guard page + stack; null when the task holds none
  void* self_sp{nullptr};    ///< the task's, while it is switched out
  void* caller_sp{nullptr};  ///< the scheduler's, while the task runs
#if defined(CAUSALMEM_SIM_ASAN)
  const void* caller_stack{nullptr};
  std::size_t caller_stack_bytes{0};
#endif
#if defined(CAUSALMEM_SIM_TSAN)
  void* tsan_self{nullptr};
  void* tsan_caller{nullptr};
#endif

  [[nodiscard]] void* stack_lo() const {
    return static_cast<char*>(map) + page_bytes();
  }
};

/// Takes a stack and prepares `f` to run `entry` on its first resume.
void fiber_start(Fiber& f, void (*entry)()) {
  f.map = g_stacks.take();
#if defined(CAUSALMEM_SIM_ASAN)
  // A fresh mapping has clean shadow; a reused stack may still carry the
  // redzones of frames its last task left without returning.
  __asan_unpoison_memory_region(f.stack_lo(), SimScheduler::kTaskStackBytes);
#endif
  // Seed the stack as if causalmem_fiber_switch had saved it: its first
  // switch pops zeroed callee-saved registers (rbp = 0 ends any
  // frame-pointer walk) and "returns" into `entry` with rsp = 8 (mod 16),
  // as after a call. Above that sits a null return address: `entry` never
  // returns (it exits the fiber), and any unwind stops there. The new task
  // starts with this thread's MXCSR and x87 control word.
  std::uint32_t mxcsr = 0;
  std::uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpu_cw));
  auto* top = reinterpret_cast<std::uintptr_t*>(
      static_cast<char*>(f.stack_lo()) + SimScheduler::kTaskStackBytes);
  top[-1] = 0;                                         // entry's return
  top[-2] = reinterpret_cast<std::uintptr_t>(entry);  // the switch's ret
  for (int reg = 3; reg <= 8; ++reg) top[-reg] = 0;    // rbp ... r15
  top[-9] = mxcsr | static_cast<std::uintptr_t>(fpu_cw) << 32;
  f.self_sp = &top[-9];
#if defined(CAUSALMEM_SIM_TSAN)
  f.tsan_self = __tsan_create_fiber(0);
#endif
}

/// Scheduler -> task; returns when the task parks or finishes.
void fiber_resume(Fiber& f) {
#if defined(CAUSALMEM_SIM_TSAN)
  f.tsan_caller = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_self, 0);
#endif
#if defined(CAUSALMEM_SIM_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f.stack_lo(),
                                 SimScheduler::kTaskStackBytes);
#endif
  causalmem_fiber_switch(&f.caller_sp, f.self_sp);
#if defined(CAUSALMEM_SIM_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

/// First statement on a new fiber: completes the scheduler's switch.
void fiber_entered(Fiber& f) {
#if defined(CAUSALMEM_SIM_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &f.caller_stack,
                                  &f.caller_stack_bytes);
#else
  (void)f;
#endif
}

/// Task -> scheduler; returns when the scheduler resumes the task.
void fiber_suspend(Fiber& f) {
#if defined(CAUSALMEM_SIM_TSAN)
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
#if defined(CAUSALMEM_SIM_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, f.caller_stack,
                                 f.caller_stack_bytes);
#endif
  causalmem_fiber_switch(&f.self_sp, f.caller_sp);
#if defined(CAUSALMEM_SIM_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, &f.caller_stack,
                                  &f.caller_stack_bytes);
#endif
}

/// Task -> scheduler for the last time; the task holds its (now unused)
/// stack until fiber_release.
[[noreturn]] void fiber_exit(Fiber& f) {
#if defined(CAUSALMEM_SIM_TSAN)
  __tsan_switch_to_fiber(f.tsan_caller, 0);
#endif
#if defined(CAUSALMEM_SIM_ASAN)
  // A null save slot tells ASan this stack is left for good.
  __sanitizer_start_switch_fiber(nullptr, f.caller_stack,
                                 f.caller_stack_bytes);
#endif
  causalmem_fiber_switch(&f.self_sp, f.caller_sp);
  CM_UNREACHABLE("a finished fiber was resumed");
}

/// Pools the stack of a fiber that is not running (or was never started).
/// TSan's fiber object is per run: only the memory is reused.
void fiber_release(Fiber& f) noexcept {
  if (f.map == nullptr) return;
#if defined(CAUSALMEM_SIM_TSAN)
  __tsan_destroy_fiber(f.tsan_self);
  f.tsan_self = nullptr;
#endif
  g_stacks.give_back(f.map);
  f.map = nullptr;
}

}  // namespace

struct SimScheduler::Task {
  enum class State : std::uint8_t {
    kIdle,      ///< not started: its first step runs the body
    kRunning,   ///< its fiber is executing (the scheduler's stack waits)
    kParked,    ///< waiting on `ready` (or a wake) / `deadline_ns`
    kFinished,
  };
  std::string_view label;  ///< interned task name
  std::uint32_t index{0};  ///< position in tasks_, and its coop token
  std::function<void()> body;
  State state{State::kIdle};
  /// Wait condition while parked; empty when the task waits to be woken.
  std::function<bool()> ready;
  std::uint64_t deadline_ns{0};
  const char* what{""};
  /// A wake arrived since the task last resumed; kept until it next
  /// resumes, so a wake sent before an empty-`ready` park is not lost.
  bool woken{false};
  bool listed{false};  ///< has a choice in task_choices_
  Fiber fiber;  ///< stack taken on the first resume, pooled when run() ends

  /// Parked on a predicate or a deadline: runnable can change without an
  /// event the scheduler sees, so it is re-tested every step.
  [[nodiscard]] bool polled() const {
    return state == State::kParked && (ready || deadline_ns != 0);
  }

  /// Whether a polled task may run at virtual time `now`.
  [[nodiscard]] bool runnable_at(std::uint64_t now) const {
    return (ready ? ready() : woken) ||
           (deadline_ns != 0 && now >= deadline_ns);
  }
};

std::size_t ReplayStrategy::pick(const std::vector<Choice>& choices) {
  if (pos_ >= schedule_.steps.size()) return 0;  // canonical tail
  const Choice& want = schedule_.steps[pos_];
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (choices[i].matches(want)) {
      ++pos_;
      return i;
    }
  }
  std::ostringstream os;
  os << "replay diverged at step " << pos_ << ": '" << want.to_line()
     << "' is not runnable; runnable:";
  for (const Choice& c : choices) os << " [" << c.to_line() << "]";
  error_ = os.str();
  return kAbort;
}

SimScheduler::SimScheduler(SimOptions options)
    : opt_(options), clock_(options.start_ns) {
  CM_EXPECTS_MSG(coop::current() == nullptr,
                 "another SimScheduler is already active");
  obs::set_clock_source(&clock_);
  coop::set_parker(this);
}

SimScheduler::~SimScheduler() {
  // run() unwinds every parked task and pools every stack before it
  // returns, so no fiber outlives it: resuming one here could run a task
  // on a thread other than run()'s.
  for (const auto& tp : tasks_) {
    CM_ASSERT(tp->state == Task::State::kIdle ||
              tp->state == Task::State::kFinished);
    CM_ASSERT(tp->fiber.map == nullptr);
  }
  coop::set_parker(nullptr);
  obs::set_clock_source(nullptr);
}

std::uint32_t SimScheduler::add_task(std::string name,
                                     std::function<void()> body) {
  CM_EXPECTS_MSG(!ran_, "add_task after run()");
  CM_EXPECTS(body != nullptr);
  auto t = std::make_unique<Task>();
  t->label = intern_label(name);
  t->index = static_cast<std::uint32_t>(tasks_.size());
  t->body = std::move(body);
  tasks_.push_back(std::move(t));
  return tasks_.back()->index;
}

bool SimScheduler::in_task() const noexcept {
  return tl_sched == this && current_ != nullptr;
}

coop::TaskToken SimScheduler::self() const noexcept {
  return in_task() ? static_cast<coop::TaskToken>(current_->index)
                   : coop::kNoTask;
}

void SimScheduler::wake(coop::TaskToken token) {
  const auto i = static_cast<std::size_t>(token);
  CM_ASSERT(i < tasks_.size());
  Task& t = *tasks_[i];
  t.woken = true;
  // A running task sees the kept wake when it parks, and a polled task
  // when it is re-tested at the next step (a predicate park ignores it).
  if (t.state == Task::State::kParked && !t.polled()) list_task(t, true);
}

void SimScheduler::list_task(Task& t, bool runnable) {
  if (t.listed == runnable) return;
  t.listed = runnable;
  const auto at = std::lower_bound(
      task_choices_.begin(), task_choices_.end(), t.index,
      [](const Choice& c, std::uint32_t i) { return c.actor < i; });
  if (runnable) {
    task_choices_.insert(
        at, Choice{ChoiceKind::kStep, kNoNode, kNoNode, t.index, t.label});
  } else {
    task_choices_.erase(at);
  }
}

void SimScheduler::park(const std::function<bool()>& ready,
                        std::uint64_t deadline_ns, const char* what) {
  CM_ASSERT(in_task());
  Task& t = *current_;
  t.state = Task::State::kParked;
  t.ready = ready;
  t.deadline_ns = deadline_ns;
  t.what = what;
  if (t.polled()) {
    polled_.push_back(&t);
  } else {
    list_task(t, t.woken);
  }
  fiber_suspend(t.fiber);
  if (aborting_) throw TaskAbort{};
}

void SimScheduler::fiber_entry() noexcept {
  // noexcept: an exception other than TaskAbort escaping a body ends in
  // std::terminate, as it would at the top of a thread.
  Task& t = *tl_sched->current_;
  fiber_entered(t.fiber);
  try {
    t.body();
  } catch (const TaskAbort&) {
    // Unwound by abort_tasks; fall through to the final switch.
  }
  t.state = Task::State::kFinished;
  --tl_sched->unfinished_;
  tl_sched->list_task(t, false);
  fiber_exit(t.fiber);
}

void SimScheduler::resume_task(Task& t) {
  CM_ASSERT(t.state == Task::State::kIdle ||
            t.state == Task::State::kParked);
  if (t.state == Task::State::kIdle) fiber_start(t.fiber, &fiber_entry);
  if (t.polled()) polled_.erase(std::find(polled_.begin(), polled_.end(), &t));
  t.state = Task::State::kRunning;
  t.ready = nullptr;
  t.deadline_ns = 0;
  t.what = "";
  t.woken = false;
  // The task runs on this thread until it parks or finishes.
  current_ = &t;
  fiber_resume(t.fiber);
  current_ = nullptr;
}

void SimScheduler::collect_choices(std::vector<Choice>* out) {
  if (transport_ != nullptr) transport_->append_deliverable(out);
  const std::uint64_t now = clock_.now_ns();
  for (Task* t : polled_) list_task(*t, t->runnable_at(now));
  out->insert(out->end(), task_choices_.begin(), task_choices_.end());
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    const Timer& tm = timers_[i];
    if (tm.done || tm.due_ns > now) continue;
    out->push_back(Choice{ChoiceKind::kTimer, kNoNode, kNoNode,
                          static_cast<std::uint32_t>(i), tm.label});
  }
}

void SimScheduler::execute(const Choice& c, std::size_t idx) {
  (void)idx;
  switch (c.kind) {
    case ChoiceKind::kDeliver:
      CM_ASSERT(transport_ != nullptr);
      transport_->deliver_one(c.from, c.to);
      return;
    case ChoiceKind::kStep:
      CM_ASSERT(c.actor < tasks_.size());
      resume_task(*tasks_[c.actor]);
      return;
    case ChoiceKind::kTimer: {
      CM_ASSERT(c.actor < timers_.size());
      Timer& tm = timers_[c.actor];
      tm.fire();
      if (tm.period_ns == 0) {
        tm.done = true;
      } else {
        // Re-arm relative to virtual now, not due_ns: after a forced time
        // jump a due_ns+period re-arm would fire a catch-up burst.
        tm.due_ns = clock_.now_ns() + tm.period_ns;
      }
      return;
    }
  }
  CM_UNREACHABLE("bad choice kind");
}

std::string SimScheduler::deadlock_diagnosis() const {
  std::ostringstream os;
  os << "simulation deadlock at t=" << clock_.now_ns() << "ns:";
  for (const auto& tp : tasks_) {
    const Task& t = *tp;
    if (t.state == Task::State::kFinished) continue;
    os << " [task '" << t.label << "' ";
    if (t.state == Task::State::kIdle) {
      os << "not started";
    } else {
      os << "parked on '" << t.what << "'";
      if (t.deadline_ns != 0) os << " deadline=" << t.deadline_ns;
    }
    os << "]";
  }
  if (transport_ != nullptr && transport_->pending_count() != 0) {
    os << " [" << transport_->pending_count() << " undeliverable messages]";
  }
  return os.str();
}

void SimScheduler::abort_tasks() {
  aborting_ = true;
  // Resume parked tasks one at a time; each throws TaskAbort out of its
  // park() and unwinds on its own stack to fiber_entry. Sequential, so
  // teardown is as deterministic as the run itself.
  for (auto& tp : tasks_) {
    Task& t = *tp;
    if (t.state != Task::State::kParked) continue;
    resume_task(t);
    CM_ASSERT_MSG(t.state == Task::State::kFinished,
                  "a task parked again while unwinding");
  }
}

RunReport SimScheduler::run(Strategy& strategy) {
  CM_EXPECTS_MSG(!ran_, "SimScheduler::run is single-use");
  ran_ = true;
  tl_sched = this;
  unfinished_ = tasks_.size();
  for (auto& tp : tasks_) list_task(*tp, true);  // idle: a step starts it
  // Interned here rather than in the inline add_timer, which must not need
  // a sim-library symbol.
  for (Timer& tm : timers_) tm.label = intern_label(tm.name);
  RunReport rep;
  std::vector<Choice> choices;
  for (;;) {
    const std::size_t pending =
        transport_ != nullptr ? transport_->pending_count() : 0;
    // Timers are infrastructure (heartbeats): they do not keep a run alive.
    if (unfinished_ == 0 && pending == 0) {
      rep.completed = true;
      break;
    }

    choices.clear();
    collect_choices(&choices);
    if (choices.empty()) {
      // Nothing runnable now; advance virtual time to the next deadline or
      // timer due-time. If there is none, the system can never progress.
      std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
      for (const auto& tp : tasks_) {
        const Task& t = *tp;
        if (t.state == Task::State::kParked && t.deadline_ns != 0) {
          next = std::min(next, t.deadline_ns);
        }
      }
      for (const Timer& tm : timers_) {
        if (!tm.done) next = std::min(next, tm.due_ns);
      }
      if (next == std::numeric_limits<std::uint64_t>::max()) {
        rep.deadlocked = true;
        rep.error = deadlock_diagnosis();
        break;
      }
      CM_ASSERT(next > clock_.now_ns());
      clock_.set_ns(next);
      continue;  // a time jump is not a schedule step
    }

    if (rep.steps >= opt_.max_steps) {
      rep.error = "max_steps (" + std::to_string(opt_.max_steps) +
                  ") exceeded — livelocked schedule?";
      break;
    }
    const std::size_t idx = strategy.pick(choices);
    if (idx == Strategy::kAbort) {
      rep.error = strategy.error_message();
      if (rep.error.empty()) rep.error = "strategy aborted the run";
      break;
    }
    CM_EXPECTS_MSG(idx < choices.size(), "strategy picked an invalid index");
    rep.schedule.steps.push_back(choices[idx]);
    rep.branching.push_back(choices.size());
    rep.chosen.push_back(idx);
    ++rep.steps;
    // Tick before executing so every event (trace records, histories) gets
    // a distinct virtual timestamp.
    clock_.advance_ns(opt_.event_tick_ns);
    execute(choices[idx], idx);
  }

  if (!rep.completed) abort_tasks();
  for (auto& tp : tasks_) fiber_release(tp->fiber);
  tl_sched = nullptr;
  rep.end_ns = clock_.now_ns();
  return rep;
}

}  // namespace causalmem::sim
