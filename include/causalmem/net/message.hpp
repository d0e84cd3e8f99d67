// Wire messages for all three DSM protocols. One flat struct (rather than a
// class hierarchy) keeps the codec trivial and lets transports stay agnostic
// of which protocol is running; unused fields are zero.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/common/codec.hpp"
#include "causalmem/common/types.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem {

/// Leading byte of every encoded message; bumped whenever the layout
/// changes. Every node runs the same codec, so decode accepts exactly this
/// version and aborts on any other instead of misparsing.
inline constexpr std::uint8_t kWireVersion = 6;

enum class MsgType : std::uint8_t {
  // Causal owner protocol (Figure 4).
  kRead = 1,        ///< [READ, x] — request current copy from the owner
  kReadReply,       ///< [R_REPLY, x, v, VT]
  kWrite,           ///< [WRITE, x, v, VT] — ask owner to certify the write
  kWriteReply,      ///< [W_REPLY, x, v, VT]

  // Atomic (Li/Hudak-style) baseline additions.
  kInvalidate,      ///< owner -> copyset member: drop your cached copy
  kInvalidateAck,   ///< copyset member -> owner

  // Causal-broadcast memory (Figure 3 model).
  kBroadcastUpdate, ///< writer -> peer: apply (x, v) with this stamp

  // Reliable-delivery adapter (net/reliable_channel.hpp). Not a protocol
  // message: never reaches a DSM node's handler.
  kRelAck,          ///< receiver -> sender: cumulative ack for one channel

  // Crash tolerance (dsm/failover.hpp). These are recovery traffic, not
  // protocol messages: they are excluded from message accounting.
  kHeartbeat,       ///< failure-detector probe (sent below the reliable layer)
  kSyncRequest,     ///< restarted node -> peer: send me your vector time
  kSyncReply,       ///< peer -> restarted node: my current vector time
  kRecover,         ///< successor -> peer: your copy of this page, if it
                    ///< beats the stamp carried (empty stamp: any copy)?
  kRecoverReply,    ///< peer -> successor: copy + writestamp (accepted) or
                    ///< nothing fresher (!accepted, no payload)

  // Sharded copyset maintenance (docs/SHARDING.md). A batch of
  // invalidation notices normally piggybacks on whatever frame is next on
  // the channel (inval_pages below); this standalone carrier exists only to
  // flush a full batch when no protocol traffic is pending. One-way,
  // advisory, no reply.
  kInvalBatch,      ///< keep last: decode rejects any type byte above it
};

[[nodiscard]] const char* msg_type_name(MsgType t) noexcept;

/// One (addr, value, tag) cell — page-granularity replies carry a batch.
struct CellUpdate {
  Addr addr{0};
  Value value{0};
  WriteTag tag{};

  void encode(ByteWriter& w) const;
  static CellUpdate decode(ByteReader& r);
};

struct Message {
  MsgType type{MsgType::kRead};
  NodeId from{kNoNode};
  NodeId to{kNoNode};

  /// Matches replies to their blocked requester. 0 for one-way messages.
  std::uint64_t request_id{0};

  Addr addr{0};
  Value value{0};
  WriteTag tag{};       ///< unique-write identity of `value`
  VectorClock stamp;    ///< writestamp / sender timestamp

  /// W_REPLY only: false when the owner's conflict-resolution policy
  /// rejected the write (Section 4.2's owner-wins rule).
  bool accepted{true};

  /// Page-mode replies: all cells of the page (addr is the page base).
  std::vector<CellUpdate> cells;

  /// Reliable-channel framing (net/reliable_channel.hpp): per-channel
  /// sequence number (0 = unsequenced / not going through the adapter) and
  /// the piggybacked cumulative ack for the reverse channel. kRelAck
  /// messages carry only rel_ack. Zero overhead when the adapter is absent.
  std::uint64_t rel_seq{0};
  std::uint64_t rel_ack{0};

  /// Correlation id linking every message (and trace event) of one protocol
  /// operation across nodes: assigned by the initiator when an operation
  /// first goes remote, echoed by owners into replies and propagated into
  /// invalidation fan-out. 0 = untraced (local ops, recovery traffic,
  /// transport-internal frames).
  std::uint64_t trace_id{0};

  /// Sharding trailer (docs/SHARDING.md). Both lists piggyback on whatever
  /// frame is next on the directed channel, so copyset maintenance costs no
  /// extra round trips on the fault-free path.
  /// Page base addresses the sender no longer caches — the receiving owner
  /// drops the sender from those pages' copysets.
  std::vector<Addr> unsub_pages;
  /// Page base addresses the sending owner invalidated — the receiver drops
  /// any cached copy (advisory: a stale copy is also caught by the normal
  /// clock-comparison sweep, so loss is safe).
  std::vector<Addr> inval_pages;

  /// Encodes into a pooled frame (common/arena.hpp): steady-state senders
  /// that FrameArena::release() the buffer after use pay no allocation.
  /// A frame depends on nothing but this message, so it decodes on its own.
  [[nodiscard]] std::vector<std::byte> encode() const;

  static Message decode(std::span<const std::byte> bytes);

  /// Decodes into `out`, reusing its stamp/cells capacity — the transports'
  /// receive paths recycle a scratch Message so steady-state decodes are
  /// allocation-free.
  static void decode_into(std::span<const std::byte> bytes, Message& out);

  [[nodiscard]] std::string to_string() const;
};

}  // namespace causalmem
