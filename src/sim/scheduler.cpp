#include "causalmem/sim/scheduler.hpp"

#include <limits>
#include <sstream>

#include "causalmem/sim/transport.hpp"

namespace causalmem::sim {

namespace {
// Identifies the task a thread belongs to (coop::Parker::on_task_thread and
// park routing). Plain pointers: tasks never migrate between threads.
thread_local SimScheduler* tl_sched = nullptr;
thread_local void* tl_task = nullptr;
}  // namespace

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
  // Normally run() has already torn everything down; this path covers a
  // scheduler destroyed without (or after an aborted) run.
  abort_tasks();
  join_tasks();
  coop::set_parker(nullptr);
  obs::set_clock_source(nullptr);
}

std::uint32_t SimScheduler::add_task(std::string name,
                                     std::function<void()> body) {
  CM_EXPECTS_MSG(!ran_, "add_task after run()");
  CM_EXPECTS(body != nullptr);
  auto t = std::make_unique<Task>();
  t->name = std::move(name);
  t->body = std::move(body);
  tasks_.push_back(std::move(t));
  return static_cast<std::uint32_t>(tasks_.size() - 1);
}

bool SimScheduler::on_task_thread() const noexcept {
  return tl_sched == this && tl_task != nullptr;
}

void SimScheduler::park(const std::function<bool()>& ready,
                        std::uint64_t deadline_ns, const char* what) {
  CM_ASSERT(on_task_thread());
  Task& t = *static_cast<Task*>(tl_task);
  t.state = Task::State::kParked;
  t.ready = ready;
  t.deadline_ns = deadline_ns;
  t.what = what;
  sched_wake_.release();
  t.wake.acquire();
  if (aborting_) throw TaskAbort{};
}

void SimScheduler::task_main(Task& t) {
  tl_sched = this;
  tl_task = &t;
  try {
    t.body();
  } catch (const TaskAbort&) {
    // Unwound by abort_tasks; fall through to the finished hand-off.
  }
  t.state = Task::State::kFinished;
  sched_wake_.release();
}

void SimScheduler::resume_task(Task& t) {
  CM_ASSERT(t.state != Task::State::kRunning &&
            t.state != Task::State::kFinished);
  t.state = Task::State::kRunning;
  t.ready = nullptr;
  t.deadline_ns = 0;
  t.what = "";
  if (!t.started) {
    t.started = true;
    // The new thread runs the body immediately; the scheduler blocks below
    // until the task parks or finishes, so one logical thread at a time.
    t.thread = std::thread([this, &t] { task_main(t); });
  } else {
    t.wake.release();
  }
  sched_wake_.acquire();
}

bool SimScheduler::task_runnable(const Task& t) const {
  switch (t.state) {
    case Task::State::kIdle:
      return !t.started;  // runnable: first step starts the body
    case Task::State::kParked:
      if (t.ready && t.ready()) return true;
      return t.deadline_ns != 0 && clock_.now_ns() >= t.deadline_ns;
    case Task::State::kRunning:
    case Task::State::kFinished:
      return false;
  }
  return false;
}

void SimScheduler::collect_choices(std::vector<Choice>* out) const {
  if (transport_ != nullptr) transport_->append_deliverable(out);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (!task_runnable(*tasks_[i])) continue;
    Choice c;
    c.kind = ChoiceKind::kStep;
    c.actor = static_cast<std::uint32_t>(i);
    c.label = tasks_[i]->name;
    out->push_back(std::move(c));
  }
  const std::uint64_t now = clock_.now_ns();
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    const Timer& tm = timers_[i];
    if (tm.done || tm.due_ns > now) continue;
    Choice c;
    c.kind = ChoiceKind::kTimer;
    c.actor = static_cast<std::uint32_t>(i);
    c.label = tm.name;
    out->push_back(std::move(c));
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
    os << " [task '" << t.name << "' ";
    if (!t.started) {
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
  // Resume unfinished tasks one at a time; each throws TaskAbort out of its
  // park() and unwinds to task_main. Sequential, so teardown is as
  // deterministic as the run itself.
  for (auto& tp : tasks_) {
    Task& t = *tp;
    if (!t.started || t.state == Task::State::kFinished) continue;
    CM_ASSERT(t.state == Task::State::kParked);
    resume_task(t);
  }
}

void SimScheduler::join_tasks() {
  for (auto& tp : tasks_) {
    if (tp->thread.joinable()) tp->thread.join();
  }
}

RunReport SimScheduler::run(Strategy& strategy) {
  CM_EXPECTS_MSG(!ran_, "SimScheduler::run is single-use");
  ran_ = true;
  RunReport rep;
  std::vector<Choice> choices;
  for (;;) {
    bool all_finished = true;
    for (const auto& tp : tasks_) {
      if (tp->state != Task::State::kFinished) {
        all_finished = false;
        break;
      }
    }
    const std::size_t pending =
        transport_ != nullptr ? transport_->pending_count() : 0;
    // Timers are infrastructure (heartbeats): they do not keep a run alive.
    if (all_finished && pending == 0) {
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
  join_tasks();
  rep.end_ns = clock_.now_ns();
  return rep;
}

}  // namespace causalmem::sim
