// Ring-buffer tracer: capacity rounding, drop-oldest wraparound, event
// payload fidelity, and lock-free recording from many concurrent writers
// (exercised under TSan in the sanitizer CI job).
#include "causalmem/obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "causalmem/obs/clock.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem::obs {
namespace {

TEST(Tracer, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(Tracer(0, 1).capacity(), 2u);
  EXPECT_EQ(Tracer(0, 2).capacity(), 2u);
  EXPECT_EQ(Tracer(0, 3).capacity(), 4u);
  EXPECT_EQ(Tracer(0, 1000).capacity(), 1024u);
}

TEST(Tracer, RecordsPayloadVerbatim) {
  FakeClock fake(777);
  ScopedClockSource scope(&fake);
  Tracer t(3, 16);
  VectorClock vt(4);
  vt.increment(1);
  vt.increment(1);
  t.record(TraceEventKind::kSend, 2, /*peer=*/1, /*addr=*/42, &vt);
  t.record(TraceEventKind::kReadDone, 0, kNoNode, 7, nullptr,
           /*ts_ns=*/500, /*dur_ns=*/250);

  const auto events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceEventKind::kSend);
  EXPECT_EQ(events[0].node, 3u);
  EXPECT_EQ(events[0].peer, 1u);
  EXPECT_EQ(events[0].addr, 42u);
  EXPECT_EQ(events[0].msg_type, 2u);
  EXPECT_EQ(events[0].ts_ns, 777u);  // "now" from the fake clock
  EXPECT_EQ(events[0].vclock, (std::vector<std::uint64_t>{0, 2, 0, 0}));
  EXPECT_EQ(events[1].ts_ns, 500u);  // explicit start stamp
  EXPECT_EQ(events[1].dur_ns, 250u);
  EXPECT_TRUE(events[1].vclock.empty());
}

// A ring of four lazily allocated segments, beside the one-segment rings.
constexpr std::size_t kFourSegments = 4 * Tracer::kSegmentSlots;

void check_wraparound_keeps_newest(std::size_t capacity) {
  SCOPED_TRACE(capacity);
  Tracer t(0, capacity);
  const std::uint64_t total = capacity + 12;
  for (std::uint64_t i = 0; i < total; ++i) {
    t.record(TraceEventKind::kSend, 0, kNoNode, /*addr=*/i);
  }
  const auto events = t.events();
  ASSERT_EQ(events.size(), capacity);
  // Drop-oldest: the retained window is exactly the last `capacity`
  // records, in order.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].addr, 12 + i);
  }
  EXPECT_EQ(t.attempted(), total);
  EXPECT_EQ(t.dropped(), 0u);  // single writer never collides
}

TEST(Tracer, WraparoundKeepsNewest) {
  check_wraparound_keeps_newest(8);
  check_wraparound_keeps_newest(kFourSegments);
}

TEST(Tracer, ResetEmptiesTheWindow) {
  Tracer t(0, 8);
  t.record(TraceEventKind::kSend);
  t.reset();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.attempted(), 0u);
}

void check_concurrent_writers(std::size_t capacity) {
  // Small ring + many writers forces constant wraparound and slot collisions.
  // The invariants: every retained event is internally consistent (its addr
  // encodes writer/index), kept + dropped == attempted, and seq values are
  // unique — torn slots would violate the first, lost tickets the second.
  // With several segments, writers also race to install each one.
  SCOPED_TRACE(capacity);
  Tracer t(0, capacity);
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&t, w] {
        for (std::uint64_t i = 0; i < kPerThread; ++i) {
          t.record(TraceEventKind::kSend, static_cast<std::uint8_t>(w + 1),
                   static_cast<NodeId>(w),
                   /*addr=*/static_cast<Addr>(w) * kPerThread + i);
        }
      });
    }
  }
  // Writers joined: the window is quiescent and safe to drain.
  const auto events = t.events();
  // Every slot was claimed, and a writer that loses a collision leaves the
  // slot to the one that holds it, so every installed segment ends full.
  EXPECT_EQ(events.size(), t.capacity());
  EXPECT_EQ(t.attempted(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::set<std::uint64_t> seqs;
  for (const TraceEvent& ev : events) {
    const auto w = static_cast<std::uint64_t>(ev.msg_type) - 1;
    EXPECT_LT(w, static_cast<std::uint64_t>(kThreads));
    EXPECT_EQ(ev.peer, w);                       // peer and msg_type agree
    EXPECT_EQ(ev.addr / kPerThread, w);          // addr written by same writer
    EXPECT_TRUE(seqs.insert(ev.seq).second);     // unique tickets
    EXPECT_LT(ev.seq, t.attempted());
  }
  // Slot collisions may drop events, but never lose accounting.
  EXPECT_LE(t.dropped(), t.attempted() - events.size());
}

TEST(Tracer, ConcurrentWritersNeverBlockOrCorrupt) {
  check_concurrent_writers(64);
  check_concurrent_writers(kFourSegments);
}

TEST(TraceHub, MergesAndOrdersAcrossNodes) {
  FakeClock fake(0);
  ScopedClockSource scope(&fake);
  TraceHub hub(3, 16);
  fake.set_ns(30);
  hub.node(2).record(TraceEventKind::kSend, 0, kNoNode, 1);
  fake.set_ns(10);
  hub.node(0).record(TraceEventKind::kSend, 0, kNoNode, 2);
  fake.set_ns(20);
  hub.node(1).record(TraceEventKind::kSend, 0, kNoNode, 3);

  const auto events = hub.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].node, 0u);
  EXPECT_EQ(events[1].node, 1u);
  EXPECT_EQ(events[2].node, 2u);
  EXPECT_EQ(hub.attempted(), 3u);
  EXPECT_EQ(hub.dropped(), 0u);
}

}  // namespace
}  // namespace causalmem::obs
