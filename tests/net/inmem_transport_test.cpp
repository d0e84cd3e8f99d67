#include "causalmem/net/inmem_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

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

TEST(InMemTransport, DeliversToRegisteredHandler) {
  InMemTransport t(2);
  std::atomic<int> got{0};
  t.register_node(0, [&](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    EXPECT_EQ(m.to, 1u);
    got.fetch_add(1);
  });
  t.start();
  t.send(make_msg(0, 1, 1));
  while (t.delivered_count() < 1) std::this_thread::yield();
  EXPECT_EQ(got.load(), 1);
  t.shutdown();
}

TEST(InMemTransport, PerChannelFifoWithoutLatency) {
  InMemTransport t(2);
  std::vector<std::uint64_t> order;
  std::mutex mu;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    std::scoped_lock lock(mu);
    order.push_back(m.request_id);
  });
  t.start();
  constexpr std::uint64_t kCount = 2000;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  while (t.delivered_count() < kCount) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(order.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
}

TEST(InMemTransport, PerChannelFifoSurvivesJitter) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(50);
  lat.jitter = std::chrono::microseconds(200);
  InMemTransport t(2, lat);
  std::vector<std::uint64_t> order;
  std::mutex mu;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    std::scoped_lock lock(mu);
    order.push_back(m.request_id);
  });
  t.start();
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t i = 0; i < kCount; ++i) t.send(make_msg(0, 1, i));
  while (t.delivered_count() < kCount) std::this_thread::yield();
  t.shutdown();
  ASSERT_EQ(order.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(order[i], i);
}

TEST(InMemTransport, BaseLatencyDelaysDelivery) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(20000);  // 20 ms
  InMemTransport t(2, lat);
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [](const Message&) {});
  t.start();
  const auto start = std::chrono::steady_clock::now();
  t.send(make_msg(0, 1, 0));
  while (t.delivered_count() < 1) std::this_thread::yield();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(19));
  t.shutdown();
}

TEST(InMemTransport, ChannelLatencyOverrideIsPerDirection) {
  LatencyModel slow;
  slow.base = std::chrono::microseconds(30000);
  InMemTransport t(2);
  t.set_channel_latency(0, 1, slow);
  std::atomic<int> got_at_1{0}, got_at_0{0};
  t.register_node(0, [&](const Message&) { got_at_0.fetch_add(1); });
  t.register_node(1, [&](const Message&) { got_at_1.fetch_add(1); });
  t.start();
  t.send(make_msg(0, 1, 0));  // slow direction
  t.send(make_msg(1, 0, 0));  // fast direction
  while (got_at_0.load() < 1) std::this_thread::yield();
  EXPECT_EQ(got_at_1.load(), 0);  // slow message still in flight
  while (got_at_1.load() < 1) std::this_thread::yield();
  t.shutdown();
}

TEST(InMemTransport, CodecExerciseRoundTripsMessages) {
  InMemTransport t(2, {}, /*exercise_codec=*/true);
  std::atomic<bool> ok{false};
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    ok.store(m.request_id == 42 && m.value == -7 &&
             m.tag == WriteTag{0, 3});
  });
  t.start();
  Message m = make_msg(0, 1, 42);
  m.value = -7;
  m.tag = WriteTag{0, 3};
  t.send(std::move(m));
  while (t.delivered_count() < 1) std::this_thread::yield();
  EXPECT_TRUE(ok.load());
  t.shutdown();
}

TEST(InMemTransport, SendAfterShutdownIsDropped) {
  InMemTransport t(2);
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [](const Message&) {});
  t.start();
  t.shutdown();
  t.send(make_msg(0, 1, 0));  // must not crash or deliver
  EXPECT_EQ(t.delivered_count(), 0u);
}

TEST(InMemTransport, ManyToOneAllDelivered) {
  constexpr std::size_t kNodes = 5;
  InMemTransport t(kNodes);
  std::atomic<std::uint64_t> got{0};
  for (NodeId i = 0; i < kNodes; ++i) {
    t.register_node(i, [&](const Message&) { got.fetch_add(1); });
  }
  t.start();
  constexpr std::uint64_t kPer = 300;
  {
    std::vector<std::jthread> senders;
    for (NodeId i = 1; i < kNodes; ++i) {
      senders.emplace_back([&t, i] {
        for (std::uint64_t s = 0; s < kPer; ++s) t.send(make_msg(i, 0, s));
      });
    }
  }
  while (got.load() < kPer * (kNodes - 1)) std::this_thread::yield();
  EXPECT_EQ(got.load(), kPer * (kNodes - 1));
  t.shutdown();
}

TEST(InMemTransport, QueuedMessageWaitsForInlineDeliveryOnItsChannel) {
  // A reply on an idle zero-latency channel runs inline on the sender's
  // thread. A message sent on the same channel while that handler still
  // runs is queued behind it: its handler must not start before the
  // reply's returns, or the receiver sees the channel out of order.
  InMemTransport t(2);
  std::atomic<bool> reply_running{false};
  std::atomic<bool> reply_returned{false};
  std::atomic<bool> second_started_early{false};
  std::thread::id reply_thread;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    if (m.type == MsgType::kReadReply) {
      reply_thread = std::this_thread::get_id();
      reply_running.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      reply_returned.store(true);
    } else if (!reply_returned.load()) {
      second_started_early.store(true);
    }
  });
  t.start();
  std::thread::id replier_id;
  std::jthread replier([&] {
    replier_id = std::this_thread::get_id();
    Message reply = make_msg(0, 1, 1);
    reply.type = MsgType::kReadReply;
    t.send(std::move(reply));
  });
  while (!reply_running.load()) std::this_thread::yield();
  t.send(make_msg(0, 1, 2));  // queued: the channel is busy
  while (t.delivered_count() < 2) std::this_thread::yield();
  replier.join();
  EXPECT_EQ(reply_thread, replier_id);  // the reply really ran inline
  EXPECT_FALSE(second_started_early.load());
  t.shutdown();
}

TEST(InMemTransport, HeldSendIsDeliveredOnTheCallersThread) {
  InMemTransport t(2);
  std::thread::id handled_on;
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message&) {
    handled_on = std::this_thread::get_id();
  });
  t.start();
  Message req = make_msg(0, 1, 1);
  req.type = MsgType::kWrite;
  const HeldSend held = t.send_held(std::move(req));
  ASSERT_FALSE(held.empty());
  t.deliver_held(held);
  EXPECT_EQ(t.delivered_count(), 1u);
  EXPECT_EQ(handled_on, std::this_thread::get_id());
  t.shutdown();
}

TEST(InMemTransport, HeldSendFallsBackToWorkerWhileEndpointDelivers) {
  // Node 1's worker is inside a slow handler, so the caller cannot take the
  // endpoint's delivery slot: deliver_held returns without running the
  // handler, and the worker delivers the held message afterwards.
  InMemTransport t(3);
  std::promise<void> unblock;
  std::shared_future<void> unblocked = unblock.get_future().share();
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> held_ran_here{false};
  const std::thread::id main_id = std::this_thread::get_id();
  t.register_node(0, [](const Message&) {});
  t.register_node(2, [](const Message&) {});
  t.register_node(1, [&](const Message& m) {
    if (m.from == 0) {
      blocker_running.store(true);
      unblocked.wait();
    } else if (std::this_thread::get_id() == main_id) {
      held_ran_here.store(true);
    }
  });
  t.start();
  t.send(make_msg(0, 1, 1));
  while (!blocker_running.load()) std::this_thread::yield();
  Message req = make_msg(2, 1, 2);
  req.type = MsgType::kWrite;
  const HeldSend held = t.send_held(std::move(req));
  t.deliver_held(held);
  EXPECT_EQ(t.delivered_count(), 0u);
  unblock.set_value();
  while (t.delivered_count() < 2) std::this_thread::yield();
  EXPECT_FALSE(held_ran_here.load());
  t.shutdown();
}

TEST(InMemTransport, HeldSendOnLatencyChannelIsPlainSend) {
  LatencyModel lat;
  lat.base = std::chrono::microseconds(200);
  InMemTransport t(2, lat);
  std::atomic<int> got{0};
  t.register_node(0, [](const Message&) {});
  t.register_node(1, [&](const Message&) { got.fetch_add(1); });
  t.start();
  const HeldSend held = t.send_held(make_msg(0, 1, 1));
  EXPECT_TRUE(held.empty());
  t.deliver_held(held);  // a no-op: the worker was woken by the send
  while (got.load() < 1) std::this_thread::yield();
  t.shutdown();
}

}  // namespace
}  // namespace causalmem
