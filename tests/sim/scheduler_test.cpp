// SimScheduler mechanics: cooperative task stepping, park/ready wakeups,
// virtual-time deadlines and timers, deadlock/livelock reporting, transport
// delivery choices, schedule record/replay, and the fiber contract (unwinding,
// task identity, stack isolation).
#include "causalmem/sim/scheduler.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cfenv>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "causalmem/common/coop.hpp"
#include "causalmem/net/message.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/sim/transport.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem::sim {
namespace {

/// Cycles through the runnable set: pick 0, 1, 2, ... mod size. Gives the
/// tests a deterministic *interleaving* strategy (FirstChoice never
/// interleaves same-kind choices).
class RoundRobinStrategy final : public Strategy {
 public:
  std::size_t pick(const std::vector<Choice>& choices) override {
    return next_++ % choices.size();
  }

 private:
  std::size_t next_{0};
};

TEST(SimScheduler, RunsTasksToCompletion) {
  SimScheduler sched;
  std::vector<int> order;
  sched.add_task("a", [&] { order.push_back(1); });
  sched.add_task("b", [&] { order.push_back(2); });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(r.steps, 2u);
  ASSERT_EQ(r.schedule.steps.size(), 2u);
  EXPECT_EQ(r.schedule.steps[0].kind, ChoiceKind::kStep);
  EXPECT_EQ(r.schedule.steps[0].label, "a");
}

TEST(SimScheduler, YieldGivesInterleavingChoicePoints) {
  SimScheduler sched;
  std::string order;
  const auto worker = [&order](char tag) {
    return [&order, tag] {
      order.push_back(tag);
      coop::yield();
      order.push_back(tag);
    };
  };
  sched.add_task("a", worker('a'));
  sched.add_task("b", worker('b'));
  RoundRobinStrategy rr;
  const RunReport r = sched.run(rr);
  EXPECT_TRUE(r.ok()) << r.error;
  // pick 0 of {a,b} -> a; pick 1 of {a,b} -> b; pick 0 -> a; pick 1 -> b.
  EXPECT_EQ(order, "abab");
}

TEST(SimScheduler, VirtualTimeTicksPerEvent) {
  SimOptions opt;
  opt.start_ns = 500;
  opt.event_tick_ns = 10;
  SimScheduler sched(opt);
  std::uint64_t seen = 0;
  sched.add_task("t", [&] { seen = obs::now_ns(); });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(seen, 510u);    // one tick before the only event
  EXPECT_EQ(r.end_ns, 510u);
}

TEST(SimScheduler, DeadlineParkForcesTimeAdvance) {
  SimScheduler sched;
  const std::uint64_t deadline = 1'000'000'000ULL + 700'000;
  std::uint64_t woke_at = 0;
  sched.add_task("sleeper", [&] {
    while (obs::now_ns() < deadline) {
      coop::park([] { return false; }, deadline, "sleep");
    }
    woke_at = obs::now_ns();
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GE(woke_at, deadline);
}

TEST(SimScheduler, ParkWakesOnReadyPredicate) {
  SimScheduler sched;
  int flag = 0;
  int observed = -1;
  sched.add_task("consumer", [&] {
    while (flag == 0) {
      coop::park([&flag] { return flag != 0; }, 0, "flag");
    }
    observed = flag;
  });
  sched.add_task("producer", [&] { flag = 1; });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(observed, 1);
}

TEST(SimScheduler, ReportsDeadlockWithDiagnosis) {
  SimScheduler sched;
  sched.add_task("loner", [] {
    coop::park([] { return false; }, 0, "never");
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_NE(r.error.find("loner"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("never"), std::string::npos) << r.error;
}

/// Replays `script` (then takes the first choice) and records every choice
/// list it is offered.
class RecordingReplay final : public Strategy {
 public:
  explicit RecordingReplay(std::vector<Choice> script)
      : replay_(Schedule{{}, std::move(script)}) {}

  std::size_t pick(const std::vector<Choice>& choices) override {
    seen.push_back(choices);
    return replay_.pick(choices);
  }
  [[nodiscard]] std::string error_message() const override {
    return replay_.error_message();
  }

  std::vector<std::vector<Choice>> seen;

 private:
  ReplayStrategy replay_;
};

Choice step(std::uint32_t task) {
  return Choice{ChoiceKind::kStep, kNoNode, kNoNode, task, ""};
}

Choice deliver(NodeId from, NodeId to) {
  return Choice{ChoiceKind::kDeliver, from, to, 0, ""};
}

std::vector<std::uint32_t> step_actors(const std::vector<Choice>& choices) {
  std::vector<std::uint32_t> out;
  for (const Choice& c : choices) {
    if (c.kind == ChoiceKind::kStep) out.push_back(c.actor);
  }
  return out;
}

TEST(SimScheduler, WokenParkIsRunnableOnlyAfterItsWake) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  coop::TaskToken waiter = coop::kNoTask;
  bool done = false;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message&) { coop::wake(waiter); });
  net.start();
  const auto spinner = [&done] {
    while (!done) coop::yield();
  };
  sched.add_task("a", spinner);
  sched.add_task("waiter", [&] {
    waiter = coop::self();
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(std::move(m));
    coop::park({}, 0, "reply");
    done = true;
  });
  sched.add_task("c", spinner);
  RecordingReplay strategy({step(1), deliver(0, 1), step(1)});
  const RunReport r = sched.run(strategy);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(waiter, coop::TaskToken{1});
  ASSERT_GE(strategy.seen.size(), 3u);
  // Parked and not yet woken: absent, although nothing polls it.
  EXPECT_EQ(step_actors(strategy.seen[1]), (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(strategy.seen[1].front().kind, ChoiceKind::kDeliver);
  // The delivery woke it: back at its task-index position.
  EXPECT_EQ(step_actors(strategy.seen[2]),
            (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(strategy.seen[2][1].label, "waiter");
}

TEST(SimScheduler, WakeBeforeParkIsKept) {
  SimScheduler sched;
  std::uint64_t second_park_returned_at = 0;
  const std::uint64_t deadline = sched.now_ns() + 50'000;
  sched.add_task("t", [&] {
    // As if the task completed its own reply before parking on it.
    coop::wake(coop::self());
    coop::park({}, 0, "reply");
    // The kept wake was spent on that park: this one waits out its
    // deadline.
    coop::park({}, deadline, "sleep");
    second_park_returned_at = obs::now_ns();
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.steps, 3u);
  EXPECT_GE(second_park_returned_at, deadline);
}

TEST(SimScheduler, WokenParkHonoursItsDeadline) {
  SimScheduler sched;
  const std::uint64_t deadline = sched.now_ns() + 700'000;
  int parks = 0;
  std::uint64_t woke_at = 0;
  sched.add_task("sleeper", [&] {
    while (obs::now_ns() < deadline) {
      ++parks;
      coop::park({}, deadline, "sleep");
    }
    woke_at = obs::now_ns();
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(parks, 1);
  EXPECT_GE(woke_at, deadline);
}

TEST(SimScheduler, WakeDoesNotReleaseAPredicatePark) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  coop::TaskToken waiter = coop::kNoTask;
  bool flag = false;
  std::vector<bool> flag_at_resume;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message&) { coop::wake(waiter); });
  net.start();
  sched.add_task("waiter", [&] {
    waiter = coop::self();
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(std::move(m));
    coop::park([&flag] { return flag; }, 0, "flag");
    flag_at_resume.push_back(flag);
  });
  sched.add_task("setter", [&] {
    coop::park([&net] { return net.delivered_count() != 0; }, 0, "woken");
    flag = true;
  });
  FirstChoiceStrategy first;  // steps the waiter, delivers, then the setter
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(flag_at_resume, (std::vector<bool>{true}));
}

TEST(SimScheduler, PredicateParkIsRetestedEveryStep) {
  // A predicate can turn false again before its task is picked (a crashed
  // node's wait, say): the task must then leave the choices again.
  SimScheduler sched;
  bool flag = false;
  sched.add_task("waiter", [&flag] {
    coop::park([&flag] { return flag; }, 0, "flag");
  });
  sched.add_task("toggler", [&flag] {
    flag = true;
    coop::yield();
    flag = false;
    coop::yield();
    flag = true;
  });
  RecordingReplay script({step(0), step(1), step(1), step(1), step(0)});
  const RunReport r = sched.run(script);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_EQ(script.seen.size(), 5u);
  EXPECT_EQ(step_actors(script.seen[1]), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(step_actors(script.seen[2]), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(step_actors(script.seen[3]), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(step_actors(script.seen[4]), (std::vector<std::uint32_t>{0}));
}

TEST(SimScheduler, NeverWokenParkIsDiagnosedAsDeadlock) {
  SimScheduler sched;
  sched.add_task("forgotten", [] { coop::park({}, 0, "lost_reply"); });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.deadlocked);
  EXPECT_NE(r.error.find("forgotten"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("lost_reply"), std::string::npos) << r.error;
}

TEST(SimScheduler, MaxStepsCatchesLivelock) {
  SimOptions opt;
  opt.max_steps = 50;
  SimScheduler sched(opt);
  sched.add_task("spinner", [] {
    for (;;) coop::yield();
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.deadlocked);
  EXPECT_NE(r.error.find("max_steps"), std::string::npos) << r.error;
}

TEST(SimScheduler, OneShotTimerFiresAtDueTime) {
  SimScheduler sched;
  const std::uint64_t due = 1'000'000'000ULL + 5'000;
  std::uint64_t fired_at = 0;
  sched.add_timer("once", due, 0, [&] { fired_at = obs::now_ns(); });
  bool done = false;
  sched.add_task("waiter", [&] {
    while (fired_at == 0) {
      coop::park([&] { return fired_at != 0; }, 0, "timer");
    }
    done = true;
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(done);
  EXPECT_GE(fired_at, due);
}

TEST(SimScheduler, PeriodicTimerReArms) {
  SimScheduler sched;
  const std::uint64_t start = 1'000'000'000ULL;
  int fired = 0;
  sched.add_timer("tick", start + 1'000, 1'000, [&] { ++fired; });
  sched.add_task("waiter", [&] {
    while (fired < 3) {
      coop::park([&] { return fired >= 3; }, 0, "ticks");
    }
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GE(fired, 3);
}

TEST(SimScheduler, TransportSendsBecomeDeliverChoices) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  StatsRegistry stats(2);
  net.attach_stats(&stats);
  std::vector<Value> got;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message& m) { got.push_back(m.value); });
  net.start();
  sched.add_task("sender", [&] {
    for (Value v = 1; v <= 2; ++v) {
      Message m;
      m.type = MsgType::kRead;
      m.from = 0;
      m.to = 1;
      m.value = v;
      net.send(std::move(m));
      coop::yield();
    }
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(got, (std::vector<Value>{1, 2}));  // per-channel FIFO
  EXPECT_EQ(net.delivered_count(), 2u);
  EXPECT_EQ(net.pending_count(), 0u);
  bool saw_deliver = false;
  for (const Choice& c : r.schedule.steps) {
    if (c.kind == ChoiceKind::kDeliver) {
      saw_deliver = true;
      EXPECT_EQ(c.from, 0u);
      EXPECT_EQ(c.to, 1u);
    }
  }
  EXPECT_TRUE(saw_deliver);
}

TEST(SimScheduler, CrashPurgesQueuesAndCountsDrops) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  StatsRegistry stats(2);
  net.attach_stats(&stats);
  int delivered = 0;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message&) { ++delivered; });
  net.start();
  sched.add_task("chaos", [&] {
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(Message(m));      // queued...
    net.crash_node(1);         // ...purged here
    net.send(Message(m));      // dropped at the source
    net.restart_node(1);
    net.send(Message(m));      // delivered normally
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(stats.node(0).get(Counter::kNetFaultDrop), 2u);
}

TEST(SimScheduler, PartitionBlocksSendsButNotInFlight) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  int delivered = 0;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message&) { ++delivered; });
  net.start();
  sched.add_task("t", [&] {
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(Message(m));              // in flight before the cut
    net.set_partition(0, 1, true);
    net.send(Message(m));              // dropped
    net.set_partition(0, 1, false);
    net.send(Message(m));              // flows again
  });
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(delivered, 2);
}

/// Counts, from its destructor, unwinds that happen before run() returns.
struct UnwindProbe {
  const bool* run_returned;
  int* unwound_in_run;
  ~UnwindProbe() {
    if (!*run_returned) ++*unwound_in_run;
  }
};

TEST(SimScheduler, ParkedTasksUnwindBeforeRunReturns) {
  // An unfinished run (deadlock or max_steps) resumes each parked task so
  // TaskAbort unwinds its stack: RAII guards on it run before run() returns.
  const auto run_parked_pair = [](SimOptions opt, auto body) {
    SimScheduler sched(opt);
    bool run_returned = false;
    int unwound_in_run = 0;
    for (const char* name : {"a", "b"}) {
      sched.add_task(name, [&, body] {
        UnwindProbe probe{&run_returned, &unwound_in_run};
        body();
      });
    }
    RoundRobinStrategy rr;
    RunReport r = sched.run(rr);
    run_returned = true;
    EXPECT_EQ(unwound_in_run, 2);
    return r;
  };
  const RunReport deadlocked = run_parked_pair(
      SimOptions{}, [] { coop::park([] { return false; }, 0, "never"); });
  EXPECT_TRUE(deadlocked.deadlocked) << deadlocked.error;

  SimOptions bounded;
  bounded.max_steps = 20;
  const RunReport livelocked = run_parked_pair(bounded, [] {
    for (;;) coop::yield();
  });
  EXPECT_FALSE(livelocked.completed);
  EXPECT_NE(livelocked.error.find("max_steps"), std::string::npos)
      << livelocked.error;
}

TEST(SimScheduler, CoopIsEnabledOnlyInsideTaskBodies) {
  SimScheduler sched;
  SimTransport net(2, &sched);
  int in_body = -1;
  int in_thread = -1;
  int in_handler = -1;
  int in_timer = -1;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&](const Message&) { in_handler = coop::enabled(); });
  net.start();
  sched.add_timer("probe", sched.now_ns() + 5'000, 0,
                  [&] { in_timer = coop::enabled(); });
  sched.add_task("t", [&] {
    in_body = coop::enabled();
    std::thread helper([&] { in_thread = coop::enabled(); });
    helper.join();
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(std::move(m));
    coop::park([&] { return in_handler != -1 && in_timer != -1; }, 0,
               "probes");
  });
  EXPECT_FALSE(coop::enabled());  // the test thread, before run()
  FirstChoiceStrategy first;
  const RunReport r = sched.run(first);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(coop::enabled());  // and after it
  EXPECT_EQ(in_body, 1);
  EXPECT_EQ(in_thread, 0);
  EXPECT_EQ(in_handler, 0);
  EXPECT_EQ(in_timer, 0);
}

std::uint64_t checksum(const std::uint8_t* bytes, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ULL;
  }
  return h;
}

/// Shared by the two recursing tasks.
struct DeepState {
  int at_bottom{0};
  std::vector<int> seen_at_bottom;  ///< at_bottom after each bottom park
  std::string order;  ///< task tag after each park on the way back up
};

/// Recurses `depth` 1 KiB frames, parks at the bottom and at every level
/// on the way back up, and returns how many frames kept their bytes. Each
/// frame's address is published in `frames`, so the compiler must assume
/// a park can change the frame and re-read it afterwards.
int park_deep(char tag, int depth, DeepState& st,
              std::vector<const std::uint8_t*>& frames) {
  std::array<std::uint8_t, 1024> frame;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::uint8_t>(tag * 131 + depth * 7 + i);
  }
  frames.push_back(frame.data());
  const std::uint64_t sum = checksum(frame.data(), frame.size());
  int intact = 0;
  if (depth == 0) {
    ++st.at_bottom;
    coop::yield();
    st.seen_at_bottom.push_back(st.at_bottom);
  } else {
    intact = park_deep(tag, depth - 1, st, frames);
  }
  coop::yield();
  st.order.push_back(tag);
  return intact + (checksum(frame.data(), frame.size()) == sum ? 1 : 0);
}

/// Where the two tasks of run_deep_pair ran: the frame address of each
/// body, which lies on the task's real stack even when a sanitizer moves
/// escaping locals to a side allocation.
struct DeepRun {
  std::uintptr_t top_a{0};
  std::uintptr_t top_b{0};
};

/// Runs two tasks that each recurse 64 KiB deep with interleaved parks and
/// checks that every frame kept its bytes.
DeepRun run_deep_pair() {
  constexpr int kFrames = 64;  // 64 KiB of locals per task
  SimScheduler sched;
  DeepState st;
  std::vector<const std::uint8_t*> frames_a;
  std::vector<const std::uint8_t*> frames_b;
  int intact_a = -1;
  int intact_b = -1;
  DeepRun where;
  sched.add_task("a", [&] {
    where.top_a = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    intact_a = park_deep('a', kFrames - 1, st, frames_a);
  });
  sched.add_task("b", [&] {
    where.top_b = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    intact_b = park_deep('b', kFrames - 1, st, frames_b);
  });
  RoundRobinStrategy rr;
  const RunReport r = sched.run(rr);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(intact_a, kFrames);
  EXPECT_EQ(intact_b, kFrames);
  // Each task parked at its bottom while the other reached its own, and
  // the two unwound alternately.
  EXPECT_EQ(st.seen_at_bottom, (std::vector<int>{2, 2}));
  EXPECT_EQ(st.order.size(), 2u * kFrames);
  EXPECT_EQ(st.order.substr(0, 4), "abab");
  // The stacks are disjoint, and each spans at least 64 KiB.
  const auto span = [](const std::vector<const std::uint8_t*>& f) {
    return std::pair{reinterpret_cast<std::uintptr_t>(f.back()),
                     reinterpret_cast<std::uintptr_t>(f.front()) + 1024};
  };
  const auto [lo_a, hi_a] = span(frames_a);
  const auto [lo_b, hi_b] = span(frames_b);
  EXPECT_GE(hi_a - lo_a, kFrames * 1024);
  EXPECT_GE(hi_b - lo_b, kFrames * 1024);
  EXPECT_TRUE(hi_a <= lo_b || hi_b <= lo_a);
  return where;
}

TEST(SimScheduler, DeepStacksKeepTheirLocalsAcrossInterleavedParks) {
  (void)run_deep_pair();
}

/// -1 when the page holding `addr` is not mapped, else 1 if it is resident
/// and 0 if not.
int page_state(std::uintptr_t addr) {
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  unsigned char resident = 0;
  if (mincore(reinterpret_cast<void*>(addr & ~(page - 1)), page, &resident) !=
      0) {
    return -1;
  }
  return resident & 1;
}

TEST(SimScheduler, ConsecutiveRunsReuseTaskStacks) {
  const DeepRun first = run_deep_pair();
  // Between runs the stacks stay mapped in the pool. The top of each stays
  // resident, so the next task's first resume takes no page fault; below
  // the top kWarmStackBytes, the pages only the 64 KiB deep frames touched
  // are released.
  EXPECT_EQ(page_state(first.top_a), 1);
  EXPECT_EQ(page_state(first.top_b), 1);
  constexpr std::uintptr_t kDeep = 48 * 1024;
  static_assert(kDeep > SimScheduler::kWarmStackBytes + 4096);
  EXPECT_EQ(page_state(first.top_a - kDeep), 0);
  EXPECT_EQ(page_state(first.top_b - kDeep), 0);
  // The next run's tasks take them back (the pool is last in, first out)
  // and keep 64 KiB of locals intact on them.
  const DeepRun second = run_deep_pair();
  const auto near = [](std::uintptr_t x, std::uintptr_t y) {
    return (x > y ? x - y : y - x) < 4096;
  };
  EXPECT_TRUE(near(second.top_a, first.top_b)) << std::hex << second.top_a
                                               << " vs " << first.top_b;
  EXPECT_TRUE(near(second.top_b, first.top_a)) << std::hex << second.top_b
                                               << " vs " << first.top_a;
}

TEST(SimScheduler, EachFiberKeepsItsOwnRoundingMode) {
  // The x87 control word and MXCSR are callee-saved, so each side of a
  // switch keeps its own: task a's rounding mode must not leak into task b
  // or into a deliver handler on the scheduler's stack, and must be back
  // when a resumes.
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  SimScheduler sched;
  SimTransport net(2, &sched);
  int in_handler = -1;
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [&in_handler](const Message&) {
    in_handler = std::fegetround();
  });
  net.start();
  int a_parked = -1;
  int a_resumed = -1;
  int in_b = -1;
  sched.add_task("a", [&] {
    std::fesetround(FE_UPWARD);
    a_parked = std::fegetround();
    Message m;
    m.type = MsgType::kRead;
    m.from = 0;
    m.to = 1;
    net.send(std::move(m));
    coop::yield();
    a_resumed = std::fegetround();
    std::fesetround(FE_TONEAREST);
  });
  sched.add_task("b", [&] { in_b = std::fegetround(); });
  // a runs and parks, b runs, the handler runs, a resumes.
  Schedule order;
  order.steps = {Choice{ChoiceKind::kStep, kNoNode, kNoNode, 0, "a"},
                 Choice{ChoiceKind::kStep, kNoNode, kNoNode, 1, "b"},
                 Choice{ChoiceKind::kDeliver, 0, 1, 0, "READ"},
                 Choice{ChoiceKind::kStep, kNoNode, kNoNode, 0, "a"}};
  ReplayStrategy replay(order);
  const RunReport r = sched.run(replay);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(replay.position(), order.steps.size());
  EXPECT_EQ(a_parked, FE_UPWARD);
  EXPECT_EQ(in_b, FE_TONEAREST);
  EXPECT_EQ(in_handler, FE_TONEAREST);
  EXPECT_EQ(a_resumed, FE_UPWARD);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// State of the overflow death test, read by its SIGSEGV handler.
struct OverflowProbe {
  const std::uint8_t* neighbour{nullptr};
  std::size_t neighbour_bytes{0};
  std::uint64_t neighbour_sum{0};
  std::uintptr_t top{0};  ///< a local near the top of the overflowing stack
};
OverflowProbe g_overflow;
volatile std::uint64_t g_depth_limit = ~std::uint64_t{0};
constexpr int kOverflowStopped = 3;

void write_stderr(const char* msg) {
  ssize_t unused = write(STDERR_FILENO, msg, std::strlen(msg));
  (void)unused;
}

void on_overflow_fault(int, siginfo_t* info, void*) {
  const auto fault = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  // The guard page is the one just below the task's stack, whose top lies
  // at most a few KiB above `top`.
  const std::uintptr_t below_top = g_overflow.top - fault;
  const bool on_guard = fault < g_overflow.top &&
                        below_top > SimScheduler::kTaskStackBytes - 16 * 1024 &&
                        below_top <= SimScheduler::kTaskStackBytes + page;
  const bool neighbour_intact =
      checksum(g_overflow.neighbour, g_overflow.neighbour_bytes) ==
      g_overflow.neighbour_sum;
  if (on_guard && neighbour_intact) {
    write_stderr("overflow stopped at the guard page; neighbour intact\n");
    _exit(kOverflowStopped);
  }
  write_stderr(on_guard ? "neighbour stack corrupted\n"
                        : "fault outside the guard page\n");
  _exit(kOverflowStopped + 1);
}

/// Recurses until the stack runs out. Each frame's buffer is written by
/// its callee, so every frame stays live and the recursion cannot become
/// a loop; the limit is never reached but keeps the compiler from calling
/// the recursion infinite.
std::uint64_t recurse_until_fault(volatile std::uint8_t* caller,
                                  std::uint64_t depth) {
  volatile std::uint8_t frame[512];
  frame[0] = static_cast<std::uint8_t>(depth);
  if (caller != nullptr) caller[1] = frame[0];
  if (depth == g_depth_limit) return depth;
  return recurse_until_fault(frame, depth + 1) + frame[1];
}

void overflow_beside_a_parked_task() {
  static std::array<std::uint8_t, 64 * 1024> alt_stack;
  stack_t ss{};
  ss.ss_sp = alt_stack.data();
  ss.ss_size = alt_stack.size();
  sigaltstack(&ss, nullptr);
  struct sigaction sa{};
  sa.sa_sigaction = on_overflow_fault;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  sigaction(SIGSEGV, &sa, nullptr);

  SimScheduler sched;
  // The overflowing task's stack is mapped first; the neighbour's, mapped
  // next, typically lands directly below it, where an unguarded overflow
  // would write first.
  sched.add_task("overflow", [] {
    int top = 0;
    g_overflow.top = reinterpret_cast<std::uintptr_t>(&top);
    coop::yield();
    (void)recurse_until_fault(nullptr, 0);
  });
  sched.add_task("neighbour", [] {
    std::array<std::uint8_t, 4096> canary;
    for (std::size_t i = 0; i < canary.size(); ++i) {
      canary[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    g_overflow.neighbour = canary.data();
    g_overflow.neighbour_bytes = canary.size();
    g_overflow.neighbour_sum = checksum(canary.data(), canary.size());
    coop::park([] { return false; }, 0, "forever");
  });
  RoundRobinStrategy rr;  // overflow, neighbour, overflow
  (void)sched.run(rr);
}

TEST(SimScheduler, StackOverflowFaultsOnTheGuardPage) {
  // Re-execute the binary for the child instead of forking this process,
  // which may already run sanitizer or test-framework threads.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(overflow_beside_a_parked_task(),
              testing::ExitedWithCode(kOverflowStopped),
              "overflow stopped at the guard page; neighbour intact");
}

using Channel = std::pair<NodeId, NodeId>;

std::vector<Channel> deliver_channels(const std::vector<Choice>& choices) {
  std::vector<Channel> out;
  for (const Choice& c : choices) {
    if (c.kind == ChoiceKind::kDeliver) out.emplace_back(c.from, c.to);
  }
  return out;
}

/// Resumes the task whenever it is runnable, otherwise delivers on `drain`
/// (or the first channel); remembers the choice list of the latest pick.
class DrainStrategy final : public Strategy {
 public:
  explicit DrainStrategy(Channel drain) : drain_(drain) {}

  std::size_t pick(const std::vector<Choice>& choices) override {
    last = choices;
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (choices[i].kind == ChoiceKind::kStep) return i;
    }
    for (std::size_t i = 0; i < choices.size(); ++i) {
      if (Channel{choices[i].from, choices[i].to} == drain_) return i;
    }
    return 0;
  }

  std::vector<Choice> last;

 private:
  Channel drain_;
};

TEST(SimScheduler, DeliverChoicesStayInChannelOrderWithManyNodes) {
  // 300 nodes: from*n+to reaches 89,999, past 16 bits.
  constexpr std::size_t kNodes = 300;
  SimScheduler sched;
  SimTransport net(kNodes, &sched);
  StatsRegistry stats(kNodes);
  net.attach_stats(&stats);
  std::vector<Channel> delivered;
  for (NodeId i = 0; i < kNodes; ++i) {
    net.register_node(i, [&delivered](const Message& m) {
      delivered.emplace_back(m.from, m.to);
    });
  }
  net.start();
  const auto send = [&net](Channel ch) {
    Message m;
    m.type = MsgType::kRead;
    m.from = ch.first;
    m.to = ch.second;
    net.send(std::move(m));
  };
  const std::vector<Channel> scrambled = {
      {299, 298}, {150, 151}, {0, 299}, {5, 6},   {299, 0},
      {0, 1},     {151, 150}, {5, 299}, {150, 7}, {299, 298}};
  const Channel refilled{150, 151};
  DrainStrategy strategy(refilled);
  std::vector<Channel> after_send;
  std::vector<Channel> after_crash;
  std::vector<Channel> after_drain;
  std::vector<Channel> after_refill;
  sched.add_task("chaos", [&] {
    for (const Channel& ch : scrambled) send(ch);
    coop::yield();
    after_send = deliver_channels(strategy.last);
    net.crash_node(299);
    coop::yield();
    after_crash = deliver_channels(strategy.last);
    coop::park([&] { return !delivered.empty(); }, 0, "drain");
    after_drain = deliver_channels(strategy.last);
    send(refilled);
    coop::yield();
    after_refill = deliver_channels(strategy.last);
  });
  const RunReport r = sched.run(strategy);
  ASSERT_TRUE(r.ok()) << r.error;

  // One choice per non-empty channel, ascending by (from, to).
  EXPECT_EQ(after_send,
            (std::vector<Channel>{{0, 1}, {0, 299}, {5, 6}, {5, 299},
                                  {150, 7}, {150, 151}, {151, 150},
                                  {299, 0}, {299, 298}}));
  // The crash purges exactly node 299's channels, counted per sender.
  const std::vector<Channel> survivors = {
      {0, 1}, {5, 6}, {150, 7}, {150, 151}, {151, 150}};
  EXPECT_EQ(after_crash, survivors);
  EXPECT_EQ(stats.node(299).get(Counter::kNetFaultDrop), 3u);
  EXPECT_EQ(stats.node(0).get(Counter::kNetFaultDrop), 1u);
  EXPECT_EQ(stats.node(5).get(Counter::kNetFaultDrop), 1u);
  EXPECT_EQ(stats.node(150).get(Counter::kNetFaultDrop), 0u);
  // The drained channel leaves the list and comes back at its ordered
  // position.
  ASSERT_FALSE(delivered.empty());
  EXPECT_EQ(delivered.front(), refilled);
  EXPECT_EQ(after_drain, (std::vector<Channel>{
                             {0, 1}, {5, 6}, {150, 7}, {151, 150}}));
  EXPECT_EQ(after_refill, survivors);
  // Everything else was delivered exactly once after the task finished.
  std::vector<Channel> expected_deliveries = survivors;
  expected_deliveries.push_back(refilled);
  std::sort(delivered.begin(), delivered.end());
  std::sort(expected_deliveries.begin(), expected_deliveries.end());
  EXPECT_EQ(delivered, expected_deliveries);
  EXPECT_EQ(net.pending_count(), 0u);
}

// A nontrivial scenario for record/replay: two senders race into one
// receiver, so deliver choices from different channels coexist.
RunReport run_pingpong(Strategy& strategy) {
  SimScheduler sched;
  SimTransport net(3, &sched);
  net.register_node(0, [](const Message&) {});
  net.register_node(1, [](const Message&) {});
  net.register_node(2, [](const Message&) {});
  net.start();
  for (NodeId sender = 0; sender < 2; ++sender) {
    sched.add_task("s" + std::to_string(sender), [&net, sender] {
      for (int i = 0; i < 2; ++i) {
        Message m;
        m.type = MsgType::kRead;
        m.from = sender;
        m.to = 2;
        net.send(std::move(m));
        coop::yield();
      }
    });
  }
  return sched.run(strategy);
}

TEST(SimScheduler, ReplayReproducesRecordedSchedule) {
  RandomWalkStrategy walk(1234);
  const RunReport recorded = run_pingpong(walk);
  ASSERT_TRUE(recorded.ok()) << recorded.error;

  ReplayStrategy replay(recorded.schedule);
  const RunReport replayed = run_pingpong(replay);
  EXPECT_TRUE(replayed.ok()) << replayed.error;
  EXPECT_EQ(replayed.schedule.to_text(), recorded.schedule.to_text());
}

TEST(SimScheduler, ReplayDivergenceAborts) {
  Schedule bogus;
  // Nothing is in flight at step 0, so this deliver can never match.
  bogus.steps.push_back(Choice{ChoiceKind::kDeliver, 1, 0, 0, ""});
  ReplayStrategy replay(bogus);
  const RunReport r = run_pingpong(replay);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("diverged"), std::string::npos) << r.error;
}

TEST(SimScheduler, SchedulersAreSequentiallyReusable) {
  for (int i = 0; i < 2; ++i) {
    SimScheduler sched;  // ctor asserts no other scheduler is active
    int ran = 0;
    sched.add_task("t", [&] { ++ran; });
    FirstChoiceStrategy first;
    EXPECT_TRUE(sched.run(first).ok());
    EXPECT_EQ(ran, 1);
  }
}

}  // namespace
}  // namespace causalmem::sim
