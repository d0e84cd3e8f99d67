// SimScheduler mechanics: cooperative task stepping, park/ready wakeups,
// virtual-time deadlines and timers, deadlock/livelock reporting, transport
// delivery choices, and schedule record/replay.
#include "causalmem/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
