// Per-node protocol event tracer: a fixed-capacity ring buffer with a
// relaxed-atomic write cursor. Writers (application threads, delivery
// threads, the retransmitter, the fault timer) claim a slot with one
// fetch_add and guard the payload write with a per-slot state CAS, so
// recording is lock-free and wait-free for the common case; a writer that
// finds its slot mid-overwrite (another writer lapped the ring onto it)
// drops the event and bumps `dropped` instead of waiting. Capacity bounds
// memory; wraparound keeps the newest events (drop-oldest). The ring is
// allocated a segment at a time, on the first record that lands in each
// segment, so memory follows the events recorded up to the capacity.
//
// Reading the retained window (events()) is only consistent when writers are
// quiescent — drain after joining application threads / shutting the
// transport down. The tracer pointer reaches instrumentation sites through
// NodeStats::tracer(), a single relaxed load, so the disabled path costs one
// predictable-branch load and nothing else.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "causalmem/common/expect.hpp"
#include "causalmem/common/types.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem::obs {

enum class TraceEventKind : std::uint8_t {
  kSend = 0,     ///< wire-level send at the base transport
  kRecv,         ///< wire-level delivery at the base transport
  kReadHit,      ///< read satisfied locally (owned or cached)
  kReadMiss,     ///< read needed an owner round trip
  kReadDone,     ///< read completed (dur_ns = operation latency)
  kWriteDone,    ///< write completed (dur_ns = operation latency)
  kInvalidate,   ///< one cached page/cell invalidated
  kDiscard,      ///< one cached page discarded (replacement / liveness)
  kRetransmit,   ///< ReliableChannel re-sent an unacked message
  kDupDrop,      ///< ReliableChannel dropped a receive-side duplicate
  kAckSent,      ///< ReliableChannel sent a cumulative ack
  kFaultDrop,    ///< FaultyTransport dropped a message (incl. crash/partition)
  kFaultDup,     ///< FaultyTransport injected a duplicate copy
  kFaultDelay,   ///< FaultyTransport held a message back
  kHeartbeat,    ///< HeartbeatMonitor probe sent
  kSuspect,      ///< a peer was reported suspected (peer = the suspect)
  kFailover,     ///< this node took over a suspected peer's pages
  kRecover,      ///< successor finished writestamp-max election for a page
  kUnreachable,  ///< an operation exhausted its retries (typed failure)
  kPeerUnreachable,  ///< ReliableChannel gave up retransmitting to a peer
  kRestart,      ///< a restarted node finished rejoining
  kApply,        ///< owner applied (certified) a remote write to memory
  kCheckpoint,   ///< durable checkpoint written (addr = cells checkpointed)
  kWalReplay,    ///< restart replayed the WAL (addr = records restored)
  kCatchup,      ///< election seeded by this node's own copy (stamp = seed)
  kShardInval,   ///< a piggybacked invalidation notice dropped a cached page
  kShardUnsub,   ///< owner removed a node from a page's copyset
  kKindCount,
};

inline constexpr std::size_t kNumTraceEventKinds =
    static_cast<std::size_t>(TraceEventKind::kKindCount);

[[nodiscard]] inline const char* trace_event_kind_name(
    TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kSend: return "send";
    case TraceEventKind::kRecv: return "recv";
    case TraceEventKind::kReadHit: return "read_hit";
    case TraceEventKind::kReadMiss: return "read_miss";
    case TraceEventKind::kReadDone: return "read";
    case TraceEventKind::kWriteDone: return "write";
    case TraceEventKind::kInvalidate: return "invalidate";
    case TraceEventKind::kDiscard: return "discard";
    case TraceEventKind::kRetransmit: return "retransmit";
    case TraceEventKind::kDupDrop: return "dup_drop";
    case TraceEventKind::kAckSent: return "ack";
    case TraceEventKind::kFaultDrop: return "fault_drop";
    case TraceEventKind::kFaultDup: return "fault_dup";
    case TraceEventKind::kFaultDelay: return "fault_delay";
    case TraceEventKind::kHeartbeat: return "heartbeat";
    case TraceEventKind::kSuspect: return "suspect";
    case TraceEventKind::kFailover: return "failover";
    case TraceEventKind::kRecover: return "recover";
    case TraceEventKind::kUnreachable: return "unreachable";
    case TraceEventKind::kPeerUnreachable: return "peer_unreachable";
    case TraceEventKind::kRestart: return "restart";
    case TraceEventKind::kApply: return "apply";
    case TraceEventKind::kCheckpoint: return "checkpoint";
    case TraceEventKind::kWalReplay: return "wal_replay";
    case TraceEventKind::kCatchup: return "catchup";
    case TraceEventKind::kShardInval: return "shard_inval";
    case TraceEventKind::kShardUnsub: return "shard_unsub";
    case TraceEventKind::kKindCount: break;
  }
  // Unknown/future kinds (e.g. a newer build's trace read by this one) get a
  // stable per-value name instead of one shared "unknown": distinct kinds
  // stay distinguishable, and repeated calls return the same pointer.
  struct UnknownKindNames {
    char names[256][9];  // "kind_255" + NUL
    UnknownKindNames() noexcept {
      for (unsigned i = 0; i < 256; ++i) {
        std::snprintf(names[i], sizeof(names[i]), "kind_%u", i);
      }
    }
  };
  static const UnknownKindNames unknown;
  return unknown.names[static_cast<std::uint8_t>(k)];
}

struct TraceEvent {
  std::uint64_t seq{0};     ///< global-per-tracer record order (unique)
  std::uint64_t ts_ns{0};   ///< obs::now_ns() at record time (or caller's)
  std::uint64_t dur_ns{0};  ///< 0 = instant; else a completed-span duration
  NodeId node{kNoNode};     ///< the node whose tracer recorded the event
  NodeId peer{kNoNode};     ///< other endpoint for message events
  TraceEventKind kind{TraceEventKind::kSend};
  std::uint8_t msg_type{0};  ///< MsgType value for message events, 0 = n/a
  Addr addr{0};
  /// Correlation id shared by all events of one protocol operation across
  /// all nodes (Message::trace_id); 0 = not part of a correlated flow.
  std::uint64_t trace_id{0};
  std::vector<std::uint64_t> vclock;  ///< node's VT at the event; may be empty
};

class Tracer {
 public:
  /// Slots allocated together on first use (fewer when the ring is smaller).
  static constexpr std::size_t kSegmentSlots = 1024;

  /// `capacity` is rounded up to a power of two (minimum 2).
  Tracer(NodeId node, std::size_t capacity)
      : node_(node),
        capacity_(std::bit_ceil(std::max<std::size_t>(capacity, 2))),
        mask_(capacity_ - 1),
        segment_slots_(std::min(capacity_, kSegmentSlots)),
        segments_(capacity_ / segment_slots_) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  ~Tracer() {
    for (auto& seg : segments_) delete[] seg.load(std::memory_order_relaxed);
  }

  /// Records one event. `ts_ns` 0 means "now"; pass an explicit start stamp
  /// together with `dur_ns` for completed-span events.
  void record(TraceEventKind kind, std::uint8_t msg_type = 0,
              NodeId peer = kNoNode, Addr addr = 0,
              const VectorClock* vt = nullptr, std::uint64_t ts_ns = 0,
              std::uint64_t dur_ns = 0,
              std::uint64_t trace_id = 0) noexcept {
    const std::uint64_t ticket =
        cursor_.fetch_add(1, std::memory_order_relaxed);
    Slot& s = slot(ticket & mask_);
    std::uint64_t expected = s.state.load(std::memory_order_relaxed);
    if (expected == kBusy ||
        !s.state.compare_exchange_strong(expected, kBusy,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      // Another writer lapped the ring onto this slot mid-write; dropping
      // beats waiting (the tracer must never become a synchronization point).
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.ev.seq = ticket;
    s.ev.ts_ns = ts_ns != 0 ? ts_ns : now_ns();
    s.ev.dur_ns = dur_ns;
    s.ev.node = node_;
    s.ev.peer = peer;
    s.ev.kind = kind;
    s.ev.msg_type = msg_type;
    s.ev.addr = addr;
    s.ev.trace_id = trace_id;
    if (vt != nullptr) {
      vt->to_dense(s.ev.vclock);
    } else {
      s.ev.vclock.clear();
    }
    s.state.store(kFull, std::memory_order_release);
  }

  [[nodiscard]] NodeId node() const noexcept { return node_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Total record() calls (kept + overwritten + dropped).
  [[nodiscard]] std::uint64_t attempted() const noexcept {
    return cursor_.load(std::memory_order_relaxed);
  }

  /// Events abandoned because their slot was mid-overwrite.
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// The retained window, oldest first. Only consistent when writers are
  /// quiescent (drain after threads join / transport shutdown).
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    for (const auto& seg : segments_) {
      const Slot* slots = seg.load(std::memory_order_acquire);
      if (slots == nullptr) continue;
      for (std::size_t i = 0; i < segment_slots_; ++i) {
        if (slots[i].state.load(std::memory_order_acquire) == kFull) {
          out.push_back(slots[i].ev);
        }
      }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                return a.seq < b.seq;
              });
    return out;
  }

  void reset() noexcept {
    for (auto& seg : segments_) {
      Slot* slots = seg.load(std::memory_order_acquire);
      if (slots == nullptr) continue;
      for (std::size_t i = 0; i < segment_slots_; ++i) {
        slots[i].state.store(kFree, std::memory_order_relaxed);
      }
    }
    cursor_.store(0, std::memory_order_relaxed);
    dropped_.store(0, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint64_t kFree = 0;
  static constexpr std::uint64_t kBusy = 1;
  static constexpr std::uint64_t kFull = 2;

  struct Slot {
    std::atomic<std::uint64_t> state{kFree};
    TraceEvent ev;
  };

  /// Ring slot `i`, allocating its segment if no writer has yet.
  Slot& slot(std::uint64_t i) {
    std::atomic<Slot*>& seg = segments_[i / segment_slots_];
    Slot* slots = seg.load(std::memory_order_acquire);
    if (slots == nullptr) slots = install(seg);
    return slots[i % segment_slots_];
  }

  /// Racing first writers each allocate; the CAS winner's copy is
  /// installed and the losers free theirs.
  Slot* install(std::atomic<Slot*>& seg) {
    Slot* fresh = new Slot[segment_slots_];
    Slot* expected = nullptr;
    if (seg.compare_exchange_strong(expected, fresh,
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      return fresh;
    }
    delete[] fresh;
    return expected;
  }

  const NodeId node_;
  const std::size_t capacity_;
  const std::uint64_t mask_;
  const std::size_t segment_slots_;
  std::vector<std::atomic<Slot*>> segments_;  ///< null until first use
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

/// One tracer per node of a system; owned by DsmSystem when tracing is on.
class TraceHub {
 public:
  TraceHub(std::size_t nodes, std::size_t capacity_per_node) {
    CM_EXPECTS(nodes > 0);
    tracers_.reserve(nodes);
    for (NodeId i = 0; i < nodes; ++i) {
      tracers_.push_back(std::make_unique<Tracer>(i, capacity_per_node));
    }
  }

  [[nodiscard]] Tracer& node(NodeId i) {
    CM_EXPECTS(i < tracers_.size());
    return *tracers_[i];
  }

  [[nodiscard]] std::size_t node_count() const noexcept {
    return tracers_.size();
  }

  /// All nodes' retained events merged, timestamp-ordered. Writers must be
  /// quiescent.
  [[nodiscard]] std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    for (const auto& t : tracers_) {
      auto e = t->events();
      out.insert(out.end(), e.begin(), e.end());
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
                if (a.node != b.node) return a.node < b.node;
                return a.seq < b.seq;
              });
    return out;
  }

  [[nodiscard]] std::uint64_t attempted() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : tracers_) n += t->attempted();
    return n;
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    std::uint64_t n = 0;
    for (const auto& t : tracers_) n += t->dropped();
    return n;
  }

 private:
  std::vector<std::unique_ptr<Tracer>> tracers_;
};

}  // namespace causalmem::obs
