// Adversarial codec and reorder-buffer tests: corrupt counts, truncated
// frames, wire-version skew, forged clock frames, and frames landing
// outside the reliable channel's bounded reorder window. Contract
// violations abort (CM_EXPECTS), so the negative cases are death tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

#include "causalmem/common/arena.hpp"
#include "causalmem/common/codec.hpp"
#include "causalmem/net/inmem_transport.hpp"
#include "causalmem/net/message.hpp"
#include "causalmem/net/reliable_channel.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem {
namespace {

Message sample_message() {
  Message m;
  m.type = MsgType::kWriteReply;
  m.from = 1;
  m.to = 0;
  m.request_id = 42;
  m.addr = 7;
  m.value = 99;
  m.tag = WriteTag{1, 3};
  m.stamp = VectorClock(std::vector<std::uint64_t>{4, 17, 0, 2});
  m.cells.push_back(CellUpdate{7, 99, WriteTag{1, 3}});
  return m;
}

TEST(CodecAdversarialDeathTest, PutCountRejectsCountsBeyondU32) {
  ByteWriter w;
  EXPECT_DEATH(w.put_count(std::size_t{1} << 33),
               "codec count overflows u32 wire field");
}

TEST(CodecAdversarialDeathTest, TruncatedFramesAbortInsteadOfMisparsing) {
  const std::vector<std::byte> wire = sample_message().encode();
  // Every proper prefix is a corrupt frame: either a field under-runs or
  // the trailing-bytes postcondition fires. None may parse silently.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                 wire.size() / 2, wire.size() - 1}) {
    EXPECT_DEATH((void)Message::decode({wire.data(), keep}), "codec|exhaust");
  }
}

TEST(CodecAdversarialDeathTest, WireVersionMismatchIsRejected) {
  // Every node runs the same codec: any version byte but the current one,
  // older layouts included, is rejected rather than misparsed.
  const std::vector<std::byte> good = sample_message().encode();
  for (unsigned v = 0; v <= 0xff; ++v) {
    if (v == kWireVersion) continue;
    std::vector<std::byte> wire = good;
    wire[0] = static_cast<std::byte>(v);
    EXPECT_DEATH((void)Message::decode(wire), "unsupported wire version")
        << "version " << v;
  }
}

TEST(CodecAdversarialDeathTest, MessageTypeOutsideTheEnumIsRejected) {
  // The type byte follows the version byte. A frame naming no MsgType must
  // die in the codec, not decode and reach a node's dispatch.
  const std::vector<std::byte> good = sample_message().encode();
  for (const unsigned t :
       {0u, static_cast<unsigned>(MsgType::kInvalBatch) + 1, 200u, 0xffu}) {
    std::vector<std::byte> wire = good;
    wire[1] = static_cast<std::byte>(t);
    EXPECT_DEATH((void)Message::decode(wire), "unsupported message type")
        << "type " << t;
  }
}

TEST(CodecAdversarialDeathTest, OverflowingCellCountIsCaughtBeforeAlloc) {
  std::vector<std::byte> wire = sample_message().encode();
  // The cell count sits 64 bytes from the end: u32 count, one 28-byte cell,
  // rel_seq + rel_ack (16 bytes), trace_id (8 bytes), then the sharding
  // trailer (two empty u32-counted page lists = 8 bytes). Forge it to claim
  // 2^31 cells.
  const std::size_t count_at = wire.size() - 8 - 8 - 16 - 28 - 4;
  wire[count_at + 3] = static_cast<std::byte>(0x80);
  EXPECT_DEATH((void)Message::decode(wire), "codec under-run \\(cell count\\)");
}

// Clock frames (VectorClock::encode): varint n, varint nonzero count, then
// a varint index gap and a varint value per nonzero component. Each forged
// frame below breaks exactly one decode check.

/// Decodes `w`'s bytes as a clock frame.
void decode_clock(const ByteWriter& w) {
  ByteReader r(w.bytes());
  (void)VectorClock::decode(r);
}

TEST(CodecAdversarialDeathTest, ClockDimensionAboveU32IsRejected) {
  ByteWriter w;
  w.put_varint(std::uint64_t{UINT32_MAX} + 1);
  w.put_varint(0);
  EXPECT_DEATH(decode_clock(w), "vector clock dimension overflows u32");
}

TEST(CodecAdversarialDeathTest, ClockNonzeroCountAboveDimensionIsRejected) {
  ByteWriter w;
  w.put_varint(3);
  w.put_varint(4);
  for (int k = 0; k < 4; ++k) {
    w.put_varint(0);
    w.put_varint(1);
  }
  EXPECT_DEATH(decode_clock(w), "clock nonzero count exceeds dimension");
}

TEST(CodecAdversarialDeathTest, ClockNonzeroCountBeyondPayloadIsRejected) {
  // Every component takes at least two bytes, so a count above half the
  // remaining bytes is corrupt. Trusted, this one would make decode
  // allocate the dense form of a 2^32-entry clock (32 GiB).
  ByteWriter w;
  w.put_varint(UINT32_MAX);
  w.put_varint(UINT32_MAX);
  w.put_varint(0);
  w.put_varint(1);
  EXPECT_DEATH(decode_clock(w), "codec under-run \\(clock\\)");
  // One component short of its two bytes is caught the same way.
  ByteWriter short_frame;
  short_frame.put_varint(4);
  short_frame.put_varint(1);
  short_frame.put_varint(0);
  EXPECT_DEATH(decode_clock(short_frame), "codec under-run \\(clock\\)");
}

TEST(CodecAdversarialDeathTest, ClockIndexOutOfRangeIsRejected) {
  // A gap past the last index, and one that would overflow the index
  // arithmetic if it were added before the check.
  for (const std::uint64_t gap : {std::uint64_t{4}, std::uint64_t{UINT32_MAX},
                                  std::uint64_t{UINT64_MAX}}) {
    ByteWriter w;
    w.put_varint(4);
    w.put_varint(1);
    w.put_varint(gap);
    w.put_varint(1);
    EXPECT_DEATH(decode_clock(w), "clock index out of range") << "gap " << gap;
  }
  // The second component's gap counts from one past the first's index:
  // index 2, then 2 + 1 + 1 = 4, past n = 4.
  ByteWriter w;
  w.put_varint(4);
  w.put_varint(2);
  w.put_varint(2);
  w.put_varint(1);
  w.put_varint(1);
  w.put_varint(1);
  EXPECT_DEATH(decode_clock(w), "clock index out of range");
}

TEST(CodecAdversarialDeathTest, ClockZeroComponentIsRejected) {
  // A stored zero would make the storage form disagree with the contents,
  // and then equal clocks could compare unequal.
  ByteWriter w;
  w.put_varint(4);
  w.put_varint(2);
  w.put_varint(0);
  w.put_varint(5);
  w.put_varint(1);
  w.put_varint(0);
  EXPECT_DEATH(decode_clock(w), "clock component is zero");
}

TEST(CodecAdversarial, FrameArenaRecyclesCapacity) {
  std::vector<std::byte> buf = FrameArena::acquire();
  buf.resize(256);
  const std::size_t pooled_before = FrameArena::pooled_count();
  FrameArena::release(std::move(buf));
  EXPECT_EQ(FrameArena::pooled_count(), pooled_before + 1);
  std::vector<std::byte> again = FrameArena::acquire();
  EXPECT_EQ(FrameArena::pooled_count(), pooled_before);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 256u);
}

TEST(CodecAdversarial, OutOfWindowFrameIsDroppedAndCounted) {
  ReliableConfig cfg;
  cfg.reorder_window = 4;
  cfg.max_retransmits = 1;
  ReliableChannel rel(std::make_unique<InMemTransport>(2), cfg);
  std::atomic<int> delivered{0};
  rel.register_node(0, [&](const Message&) { delivered.fetch_add(1); });
  rel.register_node(1, [&](const Message&) {});
  rel.start();

  // Inject a frame far beyond the receive window directly into the inner
  // transport, bypassing the sender half (which would never produce it).
  Message rogue;
  rogue.type = MsgType::kBroadcastUpdate;
  rogue.from = 1;
  rogue.to = 0;
  rogue.rel_seq = 100;  // next_deliver_seq is 1, window is 4
  rel.inner().send(rogue);

  for (int i = 0; i < 2000 && rel.out_of_window_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(rel.out_of_window_count(), 1u);
  EXPECT_EQ(delivered.load(), 0);

  // An in-window frame still sails through: the drop is surgical.
  Message ok;
  ok.type = MsgType::kBroadcastUpdate;
  ok.from = 1;
  ok.to = 0;
  ok.rel_seq = 1;
  rel.inner().send(ok);
  for (int i = 0; i < 2000 && delivered.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered.load(), 1);
  rel.shutdown();
}

}  // namespace
}  // namespace causalmem
