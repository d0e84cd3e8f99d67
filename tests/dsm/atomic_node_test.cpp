#include "causalmem/dsm/atomic/node.hpp"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/history/sc_checker.hpp"

namespace causalmem {
namespace {

using AtomicSystem = DsmSystem<AtomicNode>;

TEST(AtomicNode, OwnedAccessIsLocal) {
  AtomicSystem sys(2);
  sys.memory(0).write(0, 5);
  EXPECT_EQ(sys.memory(0).read(0), 5);
  EXPECT_EQ(sys.stats().total().messages_sent(), 0u);
}

TEST(AtomicNode, ReadMissFetchesAndCaches) {
  AtomicSystem sys(2);
  sys.memory(1).write(1, 9);
  EXPECT_EQ(sys.memory(0).read(1), 9);
  EXPECT_EQ(sys.memory(0).read(1), 9);  // hit
  const auto total = sys.stats().total();
  EXPECT_EQ(total[Counter::kMsgReadRequest], 1u);
  EXPECT_EQ(total[Counter::kMsgReadReply], 1u);
}

TEST(AtomicNode, OwnerWriteInvalidatesAllCachedCopies) {
  AtomicSystem sys(3);
  sys.memory(1).write(1, 1);
  EXPECT_EQ(sys.memory(0).read(1), 1);  // 0 joins the copyset
  EXPECT_EQ(sys.memory(2).read(1), 1);  // 2 joins the copyset
  sys.memory(1).write(1, 2);            // must invalidate 0 and 2
  const auto total = sys.stats().total();
  EXPECT_EQ(total[Counter::kMsgInvalidate], 2u);
  EXPECT_EQ(total[Counter::kMsgInvalidateAck], 2u);
  // Fresh copies observed everywhere.
  EXPECT_EQ(sys.memory(0).read(1), 2);
  EXPECT_EQ(sys.memory(2).read(1), 2);
}

TEST(AtomicNode, RemoteWriteInvalidatesOtherReaders) {
  AtomicSystem sys(3);
  EXPECT_EQ(sys.memory(0).read(1), 0);
  EXPECT_EQ(sys.memory(2).read(1), 0);
  sys.memory(0).write(1, 42);  // owner is node 1; node 2's copy must die
  EXPECT_EQ(sys.stats().total()[Counter::kMsgInvalidate], 1u);
  EXPECT_EQ(sys.memory(2).read(1), 42);
  EXPECT_EQ(sys.memory(0).read(1), 42);  // writer's own copy is fresh
}

TEST(AtomicNode, NoStaleReadAfterWriteCompletes) {
  // Once any write completes, *no* processor may read the old value — the
  // strong guarantee causal memory deliberately relaxes.
  AtomicSystem sys(4);
  for (NodeId p = 0; p < 4; ++p) EXPECT_EQ(sys.memory(p).read(1), 0);
  sys.memory(3).write(1, 7);
  for (NodeId p = 0; p < 4; ++p) EXPECT_EQ(sys.memory(p).read(1), 7);
}

TEST(AtomicNode, DiscardIsNoOp) {
  AtomicSystem sys(2);
  EXPECT_EQ(sys.memory(0).read(1), 0);
  EXPECT_FALSE(sys.memory(0).discard(1));
  EXPECT_EQ(sys.memory(0).read(1), 0);
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 1u);
}

TEST(AtomicNode, SpinUntilSeesPushedInvalidation) {
  AtomicSystem sys(2);
  EXPECT_EQ(sys.memory(0).read(1), 0);  // cache the flag
  std::jthread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sys.memory(1).write(1, 1);
  });
  EXPECT_EQ(spin_until_equals(sys.memory(0), 1, 1), 1);
  // No discard-based refetches were needed.
  EXPECT_EQ(sys.stats().node_snapshot(0)[Counter::kSpinRefetch], 0u);
}

TEST(AtomicNode, ConcurrentWritersSerializeAtOwner) {
  AtomicSystem sys(3);
  constexpr int kWritesEach = 100;
  {
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < 3; ++p) {
      threads.emplace_back([&sys, p] {
        for (int i = 0; i < kWritesEach; ++i) {
          sys.memory(p).write(1, static_cast<Value>(p * 1000 + i));
        }
      });
    }
  }
  // The final value is one of the last writes; all replicas agree.
  const Value v0 = sys.memory(0).read(1);
  EXPECT_EQ(sys.memory(1).read(1), v0);
  EXPECT_EQ(sys.memory(2).read(1), v0);
}

TEST(AtomicNode, RandomWorkloadIsSequentiallyConsistent) {
  Recorder recorder(3);
  {
    AtomicSystem sys(3, {}, {}, nullptr, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < 3; ++p) {
      threads.emplace_back([&sys, p] {
        Rng rng(500 + p);
        for (int i = 0; i < 12; ++i) {  // small: the SC check is exponential
          const Addr a = rng.next_below(2);
          if (rng.chance(0.5)) {
            sys.memory(p).write(a, static_cast<Value>(p * 100 + i + 1));
          } else {
            (void)sys.memory(p).read(a);
          }
        }
      });
    }
  }
  const History h = recorder.history();
  EXPECT_EQ(check_sequential_consistency(h), ScResult::kConsistent)
      << h.to_string();
  // Sequential consistency implies causal consistency.
  const ConsistencyReport cons = check_consistency(h);
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

// In-memory transport that holds back the first message of one type sent
// after arm(), until release(). An owner sends its replies after releasing
// its mutex; holding one lets a test put the owner's next INV ahead of it,
// which is the interleaving a preempted reply sender produces.
class ReplyHoldingTransport final : public Transport {
 public:
  explicit ReplyHoldingTransport(std::size_t n) : inner_(n) {}

  void register_node(NodeId id, Handler handler) override {
    inner_.register_node(id, std::move(handler));
  }
  void start() override { inner_.start(); }
  void send(Message m) override {
    {
      std::scoped_lock lock(mu_);
      if (hold_type_ == m.type && !held_.has_value()) {
        held_ = std::move(m);
        cv_.notify_all();
        return;
      }
    }
    inner_.send(std::move(m));
  }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }

  void arm(MsgType type) {
    std::scoped_lock lock(mu_);
    hold_type_ = type;
  }
  void wait_held() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return held_.has_value(); });
  }
  void release() {
    Message m;
    {
      std::scoped_lock lock(mu_);
      m = std::move(*held_);
      hold_type_.reset();
    }
    inner_.send(std::move(m));
  }

 private:
  InMemTransport inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<MsgType> hold_type_;
  std::optional<Message> held_;
};

// Node 1 owns address 1; node 0 is the reader/writer whose reply is held.
// The owner's write between the held reply's serve point and its delivery
// invalidates node 0 first. Node 0 must not then cache the older reply:
// it has left the copyset, so no later INV would ever reach that copy.
void expect_no_stale_copy_after_overtaking_inv(MsgType held_reply) {
  ReplyHoldingTransport t(2);
  StripedOwnership ownership(2);
  StatsRegistry stats(2);
  AtomicNode n0(0, 2, ownership, t, stats.node(0), {});
  AtomicNode n1(1, 2, ownership, t, stats.node(1), {});
  t.start();
  n1.write(1, 7);
  t.arm(held_reply);
  {
    std::jthread requester([&] {
      if (held_reply == MsgType::kReadReply) {
        EXPECT_EQ(n0.read(1), 7);  // served before the owner's next write
      } else {
        n0.write(1, 5);
      }
    });
    t.wait_held();
    n1.write(1, 8);  // INV to node 0, ack, apply — all before the reply
    t.release();
  }
  EXPECT_EQ(stats.node_snapshot(0)[Counter::kInvalidationApplied], 1u);
  EXPECT_EQ(n0.read(1), 8);
  t.shutdown();
}

TEST(AtomicNode, InvOvertakingReadReplyLeavesNoStaleCopy) {
  expect_no_stale_copy_after_overtaking_inv(MsgType::kReadReply);
}

TEST(AtomicNode, InvOvertakingWriteReplyLeavesNoStaleCopy) {
  expect_no_stale_copy_after_overtaking_inv(MsgType::kWriteReply);
}

TEST(AtomicNode, WorksOverTcpTransport) {
  SystemOptions opts;
  opts.use_tcp = true;
  AtomicSystem sys(3, {}, opts);
  sys.memory(0).write(2, 5);
  EXPECT_EQ(sys.memory(1).read(2), 5);
  sys.memory(2).write(2, 6);
  EXPECT_EQ(sys.memory(1).read(2), 6);
}

}  // namespace
}  // namespace causalmem
