#include "causalmem/dsm/causal/node.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <thread>

#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"

namespace causalmem {
namespace {

using CausalSystem = DsmSystem<CausalNode>;

TEST(CausalNode, OwnedReadAndWriteAreLocal) {
  CausalSystem sys(2);
  // Node 0 owns even addresses (striped).
  sys.memory(0).write(0, 42);
  EXPECT_EQ(sys.memory(0).read(0), 42);
  EXPECT_EQ(sys.stats().total().messages_sent(), 0u);
}

TEST(CausalNode, RemoteReadFetchesFromOwner) {
  CausalSystem sys(2);
  sys.memory(1).write(1, 7);  // node 1 owns addr 1
  EXPECT_EQ(sys.memory(0).read(1), 7);
  const auto total = sys.stats().total();
  EXPECT_EQ(total[Counter::kMsgReadRequest], 1u);
  EXPECT_EQ(total[Counter::kMsgReadReply], 1u);
}

TEST(CausalNode, RemoteReadIsCachedAfterMiss) {
  CausalSystem sys(2);
  sys.memory(1).write(1, 7);
  EXPECT_EQ(sys.memory(0).read(1), 7);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  EXPECT_EQ(sys.memory(0).read(1), 7);  // hit
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 1u);
}

TEST(CausalNode, RemoteWriteIsCertifiedByOwner) {
  CausalSystem sys(2);
  sys.memory(0).write(1, 99);  // owner is node 1
  const auto total = sys.stats().total();
  EXPECT_EQ(total[Counter::kMsgWriteRequest], 1u);
  EXPECT_EQ(total[Counter::kMsgWriteReply], 1u);
  // The owner stores the value; the writer caches it.
  EXPECT_EQ(sys.memory(1).read(1), 99);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  EXPECT_EQ(sys.memory(0).read(1), 99);
}

TEST(CausalNode, UnwrittenLocationReadsInitialValue) {
  CausalSystem sys(3);
  EXPECT_EQ(sys.memory(0).read(5), kInitialValue);
  EXPECT_EQ(sys.memory(2).read(4), kInitialValue);
}

TEST(CausalNode, WriteIncrementsOwnClockComponent) {
  CausalSystem sys(2);
  sys.memory(0).write(0, 1);
  sys.memory(0).write(0, 2);
  const VectorClock vt = sys.node(0).vector_time();
  EXPECT_EQ(vt[0], 2u);
  EXPECT_EQ(vt[1], 0u);
}

TEST(CausalNode, RemoteWriteMergesOwnerClockIntoWriter) {
  CausalSystem sys(2);
  sys.memory(1).write(1, 5);  // owner's clock: [0,1]
  sys.memory(0).write(1, 6);  // writer gets owner's clock in the W_REPLY
  const VectorClock vt0 = sys.node(0).vector_time();
  EXPECT_GE(vt0[0], 1u);
  EXPECT_GE(vt0[1], 1u);
}

TEST(CausalNode, ReadMissInvalidatesStrictlyOlderCachedValues) {
  // Node 0 caches y written by node 1; then node 1 writes y' and x (causally
  // after y). When node 0 fetches x it must invalidate its stale y.
  CausalSystem sys(2);
  sys.memory(1).write(1, 10);       // y := 10
  EXPECT_EQ(sys.memory(0).read(1), 10);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  sys.memory(1).write(1, 11);       // y := 11 (overwrites 10)
  sys.memory(1).write(3, 30);       // x := 30, causally after y=11
  EXPECT_EQ(sys.memory(0).read(3), 30);
  EXPECT_FALSE(sys.node(0).is_cached(1))
      << "cached y=10 is older than x=30's writestamp and must be dropped";
}

TEST(CausalNode, ConcurrentCachedValuesSurviveInvalidation) {
  // Values written concurrently by different owners are not ordered by their
  // writestamps, so introducing one must not invalidate the other.
  CausalSystem sys(3);
  sys.memory(1).write(1, 100);  // owner 1, independent
  sys.memory(2).write(2, 200);  // owner 2, independent (concurrent)
  EXPECT_EQ(sys.memory(0).read(1), 100);
  EXPECT_EQ(sys.memory(0).read(2), 200);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  EXPECT_TRUE(sys.node(0).is_cached(2));
}

TEST(CausalNode, OwnedLocationsAreNeverInvalidated) {
  CausalSystem sys(2);
  sys.memory(0).write(0, 1);        // owned by 0
  sys.memory(1).write(1, 2);
  sys.memory(1).write(3, 3);
  EXPECT_EQ(sys.memory(0).read(1), 2);
  EXPECT_EQ(sys.memory(0).read(3), 3);
  EXPECT_EQ(sys.memory(0).read(0), 1);  // still there, still local
  EXPECT_EQ(sys.stats().node_snapshot(0)[Counter::kMsgReadRequest], 2u);
}

TEST(CausalNode, DiscardDropsCachedCopy) {
  CausalSystem sys(2);
  sys.memory(1).write(1, 5);
  EXPECT_EQ(sys.memory(0).read(1), 5);
  EXPECT_TRUE(sys.node(0).is_cached(1));
  EXPECT_TRUE(sys.memory(0).discard(1));
  EXPECT_FALSE(sys.node(0).is_cached(1));
  // Next read refetches.
  EXPECT_EQ(sys.memory(0).read(1), 5);
  EXPECT_EQ(sys.stats().total()[Counter::kMsgReadRequest], 2u);
}

TEST(CausalNode, DiscardOfOwnedLocationIsRefused) {
  CausalSystem sys(2);
  sys.memory(0).write(0, 9);
  EXPECT_FALSE(sys.memory(0).discard(0));
  EXPECT_EQ(sys.memory(0).read(0), 9);
}

TEST(CausalNode, SpinUntilSeesOwnerUpdateViaDiscard) {
  CausalSystem sys(2);
  // Node 0 caches flag=0; node 1 (owner) later writes 1. Without discard the
  // cached copy would never change — spin_until must converge anyway.
  EXPECT_EQ(sys.memory(0).read(1), 0);
  std::jthread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    sys.memory(1).write(1, 1);
  });
  EXPECT_EQ(spin_until_equals(sys.memory(0), 1, 1), 1);
  EXPECT_GE(sys.stats().node_snapshot(0)[Counter::kSpinTransition], 1u);
}

TEST(CausalNode, LruCapacityEvictsColdestPage) {
  CausalConfig cfg;
  cfg.cache_capacity_pages = 2;
  // Three independent owners write concurrently: the fetched stamps are
  // pairwise concurrent so nothing is invalidated — only LRU eviction can
  // shrink the cache.
  CausalSystem sys(4, cfg);
  sys.memory(1).write(1, 1);
  sys.memory(2).write(2, 2);
  sys.memory(3).write(3, 3);
  EXPECT_EQ(sys.memory(0).read(1), 1);
  EXPECT_EQ(sys.memory(0).read(2), 2);
  EXPECT_EQ(sys.memory(0).read(3), 3);  // evicts addr 1 (coldest)
  EXPECT_FALSE(sys.node(0).is_cached(1));
  EXPECT_TRUE(sys.node(0).is_cached(2));
  EXPECT_TRUE(sys.node(0).is_cached(3));
  EXPECT_GE(sys.stats().node_snapshot(0)[Counter::kDiscard], 1u);
}

TEST(CausalNode, FlushAllStrategyDropsWholeCache) {
  CausalConfig cfg;
  cfg.invalidation = InvalidationStrategy::kFlushAll;
  CausalSystem sys(3, cfg);
  sys.memory(1).write(1, 1);
  sys.memory(2).write(2, 2);
  EXPECT_EQ(sys.memory(0).read(1), 1);
  EXPECT_EQ(sys.memory(0).read(2), 2);  // flush-all drops cached addr 1
  EXPECT_FALSE(sys.node(0).is_cached(1));
  EXPECT_TRUE(sys.node(0).is_cached(2));
}

TEST(CausalNode, ReadOnlyPagesSurviveInvalidationSweeps) {
  CausalConfig cfg;
  cfg.invalidation = InvalidationStrategy::kFlushAll;  // harshest sweep
  CausalSystem sys(2, cfg);
  sys.memory(1).write(1, 123);  // the "constant"
  sys.memory(0).mark_read_only(1, 2);
  EXPECT_EQ(sys.memory(0).read(1), 123);
  sys.memory(1).write(3, 1);
  EXPECT_EQ(sys.memory(0).read(3), 1);  // sweep happens here
  EXPECT_TRUE(sys.node(0).is_cached(1)) << "read-only page must survive";
}

TEST(CausalNode, OwnerWinsRejectsConcurrentRemoteWrite) {
  CausalConfig cfg;
  cfg.conflict = ConflictPolicy::kOwnerWins;
  CausalSystem sys(2, cfg);
  // Owner writes its own location; node 0 writes the same location without
  // having seen the owner's value -> concurrent -> rejected.
  sys.memory(1).write(1, 10);
  sys.memory(0).write(1, 20);
  EXPECT_EQ(sys.memory(1).read(1), 10) << "owner's value must be favored";
  // The loser must not keep its rejected value cached.
  EXPECT_EQ(sys.memory(0).read(1), 10);
}

TEST(CausalNode, OwnerWinsAcceptsCausallyLaterWrite) {
  CausalConfig cfg;
  cfg.conflict = ConflictPolicy::kOwnerWins;
  CausalSystem sys(2, cfg);
  sys.memory(1).write(1, 10);
  EXPECT_EQ(sys.memory(0).read(1), 10);  // node 0 now causally after w(10)
  sys.memory(0).write(1, 20);            // dominates: legitimate overwrite
  EXPECT_EQ(sys.memory(1).read(1), 20);
}

TEST(CausalNode, WriteToReadOnlyLocationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CausalSystem sys(2);
        sys.memory(0).mark_read_only(0, 1);
        sys.memory(0).write(0, 1);
      },
      "read-only");
}

TEST(CausalNode, ConcurrentWorkloadIsCausallyConsistent) {
  Recorder recorder(3);
  {
    CausalSystem sys(3, {}, {}, nullptr, &recorder);
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < 3; ++p) {
      threads.emplace_back([&sys, p] {
        Rng rng(1000 + p);
        for (int i = 0; i < 200; ++i) {
          const Addr a = rng.next_below(6);
          if (rng.chance(0.5)) {
            sys.memory(p).write(a, static_cast<Value>(rng.next_below(1000)));
          } else {
            (void)sys.memory(p).read(a);
          }
        }
      });
    }
    threads.clear();  // join
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok())
      << cons.reason << "\n" << recorder.history().to_string();
}

// Forwards to an InMemTransport and records, per message type, the thread
// that last ran a handler for it.
class ThreadRecordingTransport final : public Transport {
 public:
  explicit ThreadRecordingTransport(std::size_t n) : inner_(n) {}

  void register_node(NodeId id, Handler handler) override {
    inner_.register_node(id, [this, h = std::move(handler)](const Message& m) {
      {
        std::scoped_lock lock(mu_);
        handled_on_[m.type] = std::this_thread::get_id();
      }
      h(m);
    });
  }
  void start() override { inner_.start(); }
  void send(Message m) override { inner_.send(std::move(m)); }
  HeldSend send_held(Message m) override {
    return inner_.send_held(std::move(m));
  }
  void deliver_held(HeldSend held) override { inner_.deliver_held(held); }
  void shutdown() override { inner_.shutdown(); }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }

  [[nodiscard]] std::thread::id handled_on(MsgType type) {
    std::scoped_lock lock(mu_);
    return handled_on_[type];
  }

  /// Returns once every delivery worker waits on an empty queue.
  void wait_until_idle() const {
    while (inner_.parked_workers() < inner_.node_count()) {
      std::this_thread::yield();
    }
  }

 private:
  InMemTransport inner_;
  std::mutex mu_;
  std::map<MsgType, std::thread::id> handled_on_;
};

TEST(CausalNode, BlockingRemoteWriteRunsOnTheWritersThread) {
  // On an idle system the writer delivers its own WRITE (caller-run), and
  // the owner's W_REPLY comes back inline: the whole round trip runs on the
  // writing thread, with the same two messages as ever.
  ThreadRecordingTransport t(2);
  StripedOwnership ownership(2);
  StatsRegistry stats(2);
  CausalNode n0(0, 2, ownership, t, stats.node(0), {});
  CausalNode n1(1, 2, ownership, t, stats.node(1), {});
  t.start();
  // Idle means parked: a worker that makes its first queue check only
  // after the held WRITE is queued would deliver the WRITE itself, which
  // the transport allows.
  t.wait_until_idle();
  n0.write(1, 5);  // node 1 owns address 1
  EXPECT_EQ(t.handled_on(MsgType::kWrite), std::this_thread::get_id());
  EXPECT_EQ(t.handled_on(MsgType::kWriteReply), std::this_thread::get_id());
  EXPECT_EQ(stats.node_snapshot(0)[Counter::kMsgWriteRequest], 1u);
  EXPECT_EQ(stats.node_snapshot(1)[Counter::kMsgWriteReply], 1u);
  EXPECT_EQ(n1.read(1), 5);
  t.shutdown();
}

TEST(CausalNode, SiblingThreadsWriteRemotelyThroughSharedEndpoints) {
  // Several application threads per node, all writing locations the other
  // node owns: callers race each other and the delivery workers for the
  // owners' delivery slots. Each thread must read back its own last write,
  // and every write must land.
  constexpr int kThreads = 3;
  constexpr Value kWrites = 200;
  CausalSystem sys(2);
  {
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < 2; ++p) {
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&sys, p, t] {
          SharedMemory& mem = sys.memory(p);
          const Addr a = 2 * static_cast<Addr>(t) + (1 - p);  // owner 1 - p
          for (Value v = 1; v <= kWrites; ++v) {
            mem.write(a, v);
            EXPECT_EQ(mem.read(a), v);
          }
        });
      }
    }
  }
  for (Addr a = 0; a < 2 * kThreads; ++a) {
    EXPECT_EQ(sys.memory(0).read(a), kWrites);
    EXPECT_EQ(sys.memory(1).read(a), kWrites);
  }
}

TEST(CausalNode, WorksOverTcpTransport) {
  SystemOptions opts;
  opts.use_tcp = true;
  CausalSystem sys(3, {}, opts);
  sys.memory(0).write(0, 11);
  sys.memory(1).write(1, 22);
  EXPECT_EQ(sys.memory(2).read(0), 11);
  EXPECT_EQ(sys.memory(2).read(1), 22);
  sys.memory(2).write(0, 33);
  EXPECT_EQ(sys.memory(0).read(0), 33);
}

TEST(CausalNode, CodecExerciseModePreservesProtocol) {
  SystemOptions opts;
  opts.exercise_codec = true;
  CausalSystem sys(2, {}, opts);
  sys.memory(1).write(1, 77);
  EXPECT_EQ(sys.memory(0).read(1), 77);
  sys.memory(0).write(1, 88);
  EXPECT_EQ(sys.memory(1).read(1), 88);
}

}  // namespace
}  // namespace causalmem
