#include "causalmem/net/reliable_channel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalmem/net/fault_injection.hpp"
#include "causalmem/net/inmem_transport.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {
namespace {

Message make_msg(NodeId from, NodeId to, std::uint64_t seq) {
  Message m;
  m.type = MsgType::kBroadcastUpdate;
  m.from = from;
  m.to = to;
  m.request_id = seq;
  m.stamp = VectorClock(2);
  return m;
}

/// Polls until `pred` holds or ~10s elapse (lossy channels recover via RTO,
/// so allow generous wall time); returns the final predicate value.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 10000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Records the request_id sequence one node observes.
struct SequenceSink {
  std::mutex mu;
  std::vector<std::uint64_t> order;
  std::atomic<int> count{0};

  Transport::Handler handler() {
    return [this](const Message& m) {
      {
        std::scoped_lock lock(mu);
        order.push_back(m.request_id);
      }
      count.fetch_add(1);
    };
  }

  /// True iff exactly 0..n-1 arrived, in order, each exactly once.
  [[nodiscard]] bool is_exactly_once_fifo(std::uint64_t n) {
    std::scoped_lock lock(mu);
    if (order.size() != n) return false;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (order[i] != i) return false;
    }
    return true;
  }
};

TEST(ReliableChannel, ExactlyOnceFifoOverLossyChannel) {
  FaultModel faults;
  faults.drop_rate = 0.2;
  faults.dup_rate = 0.1;
  faults.delay_rate = 0.1;
  faults.delay_base = std::chrono::microseconds(200);
  faults.delay_jitter = std::chrono::microseconds(800);
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(2), faults);
  ReliableChannel t(std::move(faulty));

  SequenceSink sink;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, sink.handler());
  t.start();

  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));

  ASSERT_TRUE(eventually([&] { return sink.count.load() >= int(kCount); }))
      << "delivered " << sink.count.load() << "/" << kCount;
  EXPECT_TRUE(sink.is_exactly_once_fifo(kCount))
      << "reliable layer must restore exactly-once FIFO";
  // With a 20% drop rate something must have been retransmitted, and the
  // injected duplicates must have been caught on receive.
  EXPECT_GT(t.retransmit_count(), 0u);
  EXPECT_GT(t.dup_dropped_count(), 0u);
  t.shutdown();
}

TEST(ReliableChannel, NoFaultsMeansNoRecoveryTraffic) {
  ReliableConfig config;
  config.initial_rto = std::chrono::milliseconds(50);  // generous vs loopback
  ReliableChannel t(std::make_unique<InMemTransport>(2), config);

  SequenceSink sink;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, sink.handler());
  t.start();

  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));

  ASSERT_TRUE(eventually([&] { return sink.count.load() >= int(kCount); }));
  EXPECT_TRUE(sink.is_exactly_once_fifo(kCount));
  EXPECT_EQ(t.retransmit_count(), 0u)
      << "a clean channel must never retransmit";
  EXPECT_EQ(t.dup_dropped_count(), 0u);
  t.shutdown();
}

TEST(ReliableChannel, BoundedRetransmissionsGiveUpOnDeadPeer) {
  auto faulty_owned = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(2), FaultModel{});
  FaultyTransport* faulty = faulty_owned.get();
  ReliableConfig config;
  config.initial_rto = std::chrono::microseconds(500);
  config.max_rto = std::chrono::microseconds(1000);
  config.max_retransmits = 3;
  ReliableChannel t(std::move(faulty_owned), config);

  SequenceSink sink;
  StatsRegistry stats(2);
  t.attach_stats(&stats);
  t.register_node(0, [](const Message&) {});
  t.register_node(1, sink.handler());
  t.start();

  faulty->crash_node(1);
  constexpr std::uint64_t kCount = 5;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  // Each message is retransmitted max_retransmits times and then abandoned
  // (the layer above owns the failure) — the retransmitter must not spin on
  // a dead peer forever.
  ASSERT_TRUE(eventually([&] { return t.peer_unreachable_count() == kCount; }));
  EXPECT_EQ(t.retransmit_count(), kCount * config.max_retransmits);
  EXPECT_EQ(stats.node(0).get(Counter::kNetPeerUnreachable), kCount);
  EXPECT_EQ(sink.count.load(), 0);

  // A node restart pairs FaultyTransport::restart_node with reset_peer:
  // both directions restart at sequence 1 and traffic flows again. Without
  // the reset, the receiver would hold the fresh sends in its reorder
  // buffer forever, waiting on the abandoned sequence numbers.
  t.reset_peer(1);
  faulty->restart_node(1);
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  ASSERT_TRUE(eventually([&] { return sink.count.load() == int(kCount); }));
  EXPECT_TRUE(sink.is_exactly_once_fifo(kCount));
  t.shutdown();
}

TEST(ReliableChannel, BidirectionalTrafficAcksPiggyback) {
  FaultModel faults;
  faults.drop_rate = 0.15;
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(2), faults);
  ReliableChannel t(std::move(faulty));

  SequenceSink sink0, sink1;
  t.register_node(0, sink0.handler());
  t.register_node(1, sink1.handler());
  t.start();

  constexpr std::uint64_t kCount = 100;
  std::jthread a([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  });
  std::jthread b([&] {
    for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(1, 0, i));
  });
  a.join();
  b.join();

  ASSERT_TRUE(eventually([&] {
    return sink0.count.load() >= int(kCount) &&
           sink1.count.load() >= int(kCount);
  }));
  EXPECT_TRUE(sink0.is_exactly_once_fifo(kCount));
  EXPECT_TRUE(sink1.is_exactly_once_fifo(kCount));
  t.shutdown();
}

TEST(ReliableChannel, MultiNodeAllPairs) {
  constexpr std::size_t kNodes = 4;
  constexpr std::uint64_t kPerChannel = 40;
  FaultModel faults;
  faults.drop_rate = 0.1;
  faults.dup_rate = 0.05;
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(kNodes), faults);
  ReliableChannel t(std::move(faulty));

  // per_channel[from][to] = request_ids node `to` saw from node `from`.
  std::mutex mu;
  std::vector<std::vector<std::vector<std::uint64_t>>> per_channel(
      kNodes, std::vector<std::vector<std::uint64_t>>(kNodes));
  std::atomic<int> total{0};
  for (NodeId i = 0; i < kNodes; ++i) {
    t.register_node(i, [&, i](const Message& m) {
      {
        std::scoped_lock lock(mu);
        per_channel[m.from][i].push_back(m.request_id);
      }
      total.fetch_add(1);
    });
  }
  t.start();

  std::vector<std::jthread> senders;
  for (NodeId i = 0; i < kNodes; ++i) {
    senders.emplace_back([&, i] {
      for (std::uint64_t s = 0; s < kPerChannel; ++s) {
        for (NodeId j = 0; j < kNodes; ++j) {
          if (j != i) t.send(make_msg(i, j, s));
        }
      }
    });
  }
  senders.clear();  // join

  constexpr int kExpected = int(kNodes * (kNodes - 1) * kPerChannel);
  ASSERT_TRUE(eventually([&] { return total.load() >= kExpected; }))
      << "delivered " << total.load() << "/" << kExpected;
  std::scoped_lock lock(mu);
  for (NodeId i = 0; i < kNodes; ++i) {
    for (NodeId j = 0; j < kNodes; ++j) {
      if (i == j) continue;
      const auto& got = per_channel[i][j];
      ASSERT_EQ(got.size(), kPerChannel) << "channel " << i << "->" << j;
      for (std::uint64_t s = 0; s < kPerChannel; ++s) {
        ASSERT_EQ(got[s], s) << "channel " << i << "->" << j
                             << " out of order at " << s;
      }
    }
  }
  t.shutdown();
}

TEST(ReliableChannel, SelfSendBypassesSequencing) {
  ReliableChannel t(std::make_unique<InMemTransport>(2));
  std::atomic<int> got{0};
  t.register_node(0, [&](const Message& m) {
    EXPECT_EQ(m.rel_seq, 0u) << "self-sends are not sequenced";
    got.fetch_add(1);
  });
  t.register_node(1, [](const Message&) {});
  t.start();
  t.send(make_msg(0, 0, 7));
  EXPECT_TRUE(eventually([&] { return got.load() == 1; }));
  EXPECT_EQ(t.acks_sent_count(), 0u);
  t.shutdown();
}

TEST(ReliableChannel, CountersLandInAttachedStats) {
  FaultModel faults;
  faults.drop_rate = 0.25;
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(2), faults);
  ReliableChannel t(std::move(faulty));
  StatsRegistry stats(2);
  t.attach_stats(&stats);

  SequenceSink sink;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, sink.handler());
  t.start();

  constexpr std::uint64_t kCount = 120;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  ASSERT_TRUE(eventually([&] { return sink.count.load() >= int(kCount); }));
  t.shutdown();

  const StatsSnapshot total = stats.total();
  EXPECT_EQ(total[Counter::kNetRetransmit], t.retransmit_count());
  EXPECT_EQ(total[Counter::kNetDupDropped], t.dup_dropped_count());
  EXPECT_EQ(total[Counter::kNetAckSent], t.acks_sent_count());
  EXPECT_GT(total[Counter::kNetFaultDrop], 0u);
  EXPECT_EQ(total.messages_sent(), 0u)
      << "recovery counters must not pollute protocol message accounting";
  // Retransmits happen on the sending node; dup-drops on the receiver.
  EXPECT_EQ(stats.node_snapshot(1)[Counter::kNetRetransmit], 0u);
  EXPECT_EQ(stats.node_snapshot(0)[Counter::kNetDupDropped], 0u);
}

TEST(ReliableChannel, HeldSendThroughDecoratorsRunsOnCallersThread) {
  // Both decorators forward the two-step send, so a fault-free stack still
  // delivers a held message on the caller's thread (in sequence: the
  // reliable layer's receive side runs here too). The retransmission
  // timeout is far above any scheduling delay, so a descheduled test thread
  // cannot let the retransmitter deliver the message first.
  auto faulty = std::make_unique<FaultyTransport>(
      std::make_unique<InMemTransport>(2), FaultModel{});
  ReliableConfig cfg;
  cfg.initial_rto = std::chrono::seconds(10);
  cfg.max_rto = cfg.initial_rto;
  ReliableChannel rc(std::move(faulty), cfg);
  std::thread::id handled_on;
  SequenceSink sink;
  rc.register_node(0, [](const Message&) {});
  rc.register_node(1, [&, h = sink.handler()](const Message& m) {
    handled_on = std::this_thread::get_id();
    h(m);
  });
  rc.start();
  const HeldSend held = rc.send_held(make_msg(0, 1, 0));
  ASSERT_FALSE(held.empty());
  rc.deliver_held(held);
  EXPECT_EQ(handled_on, std::this_thread::get_id());
  EXPECT_TRUE(sink.is_exactly_once_fifo(1));
  rc.shutdown();
}

}  // namespace
}  // namespace causalmem
