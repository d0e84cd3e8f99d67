// Per-node event counters. Message accounting is a first-class concern: the
// paper's headline quantitative claim is a message count (2n+6 vs 3n+5 per
// processor per solver iteration), so every protocol send and every cache
// event is categorized here.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/common/expect.hpp"
#include "causalmem/common/types.hpp"
#include "causalmem/obs/histogram.hpp"

namespace causalmem {

namespace obs {
class FlightRecorder;
class Tracer;
}  // namespace obs

enum class Counter : std::size_t {
  // --- messages on the wire (sends) ---
  kMsgReadRequest = 0,   ///< [READ, x] to owner
  kMsgReadReply,         ///< [R_REPLY, x, v, VT]
  kMsgWriteRequest,      ///< [WRITE, x, v, VT] to owner
  kMsgWriteReply,        ///< [W_REPLY, x, v, VT]
  kMsgInvalidate,        ///< atomic DSM: INV to a copyset member
  kMsgInvalidateAck,     ///< atomic DSM: INV_ACK back to the owner
  kMsgBroadcast,         ///< broadcast memory: one update message to one peer

  // --- local protocol events ---
  kReadHit,              ///< read satisfied from owned or cached location
  kReadMiss,             ///< read needed a round trip to the owner
  kWriteLocal,           ///< write to an owned location (no messages)
  kWriteRemote,          ///< write certified by a remote owner
  kInvalidationApplied,  ///< one cached entry invalidated (any reason)
  kDiscard,              ///< one cached entry discarded (replacement/liveness)
  kStaleInstallSkipped,  ///< read reply served before a mid-flight owner
                         ///< merge: value returned but not cached

  // --- busy-wait accounting (E1 separates these from protocol cost) ---
  kSpinRefetch,          ///< a wait(B) poll that re-fetched from the owner
  kSpinTransition,       ///< a wait(B) that finally observed the new value

  // --- transport recovery cost (NOT message counters: E1's protocol
  // accounting must separate protocol cost from recovery cost) ---
  kNetRetransmit,        ///< ReliableChannel: timeout-driven retransmission
  kNetDupDropped,        ///< ReliableChannel: receive-side duplicate dropped
  kNetAckSent,           ///< ReliableChannel: cumulative ack sent
  kNetFaultDrop,         ///< FaultyTransport: message dropped (incl. crash/partition)
  kNetFaultDup,          ///< FaultyTransport: duplicate copy injected
  kNetFaultDelay,        ///< FaultyTransport: extra delay injected
  kNetSendFailed,        ///< TcpTransport: frame write failed / connection broken
  kNetFrameError,        ///< TcpTransport: corrupt frame length, connection torn down
  kNetHeartbeat,         ///< HeartbeatMonitor: one HEARTBEAT probe sent
  kNetPeerUnreachable,   ///< ReliableChannel: gave up retransmitting to a peer
  kNetOutOfWindow,       ///< ReliableChannel: frame beyond the reorder window dropped

  // --- crash tolerance (failover layer; NOT message counters: the
  // fault-free path must keep the paper's 2n+6 accounting untouched) ---
  kFoSuspect,            ///< a node reported a peer as suspected
  kFoFailover,           ///< this node became successor-owner for a peer
  kFoRecoverRequest,     ///< successor asked a peer for its freshest copy
  kFoRecoverReply,       ///< peer answered a recovery election request
  kFoRecoverCopy,        ///< ...and its answer carried a copy of the page
  kFoSyncRequest,        ///< restarted node asked a peer for its clock
  kFoSyncReply,          ///< peer answered a restart resync request
  kFoRequestTimeout,     ///< one owner request round expired at its deadline
  kFoUnreachable,        ///< an operation exhausted its retries (Unreachable)

  // --- durable persistence (persist/*). Recovery-class like fo.*: all zero
  // on the fault-free path with persistence off, and never message counters
  // (the paper's 2n+6 accounting is untouched) ---
  kPersistWalAppend,      ///< one WAL record appended at an owner apply point
  kPersistWalReplayed,    ///< one WAL record replayed at restart
  kPersistWalTruncated,   ///< a torn/corrupt WAL tail was detected and cut
  kPersistCheckpoint,     ///< one checkpoint written (atomic replace)
  kPersistCkptRejected,   ///< a checkpoint failed validation: discarded
  kPersistRestoredCells,  ///< owned cells restored from checkpoint + WAL

  // --- sharded copyset maintenance (docs/SHARDING.md). All zero unless the
  // sharding features are enabled; kMsgInvalBatch is a message counter
  // (standalone carrier frames are real sends), the rest are local
  // bookkeeping ---
  kMsgInvalBatch,          ///< standalone INV_BATCH carrier frame sent
  kShardSubscribe,         ///< owner added a node to a page's copyset
  kShardUnsubscribe,       ///< owner dropped a node from a page's copyset
  kShardInvalQueued,       ///< one invalidation notice queued for a subscriber
  kShardInvalPiggybacked,  ///< one queued notice rode an existing frame
  kShardInvalApplied,      ///< one piggybacked notice dropped a cached page

  kCounterCount,
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCounterCount);

[[nodiscard]] const char* counter_name(Counter c) noexcept;

/// Latency distributions recorded next to the counters (obs::Histogram,
/// log-bucketed, mergeable). Values are nanoseconds.
enum class LatencyMetric : std::size_t {
  kReadNs = 0,          ///< application-visible read latency
  kWriteNs,             ///< application-visible write latency
  kOwnerRttNs,          ///< request-send to reply-applied owner round trip
  kRetransmitDelayNs,   ///< first-send to retransmission delay
  kMetricCount,
};

inline constexpr std::size_t kNumLatencyMetrics =
    static_cast<std::size_t>(LatencyMetric::kMetricCount);

[[nodiscard]] const char* latency_metric_name(LatencyMetric m) noexcept;

/// True for counters that belong to the transport recovery layer (net.*),
/// reported separately from protocol cost.
[[nodiscard]] constexpr bool is_recovery_counter(Counter c) noexcept {
  switch (c) {
    case Counter::kNetRetransmit:
    case Counter::kNetDupDropped:
    case Counter::kNetAckSent:
    case Counter::kNetFaultDrop:
    case Counter::kNetFaultDup:
    case Counter::kNetFaultDelay:
    case Counter::kNetSendFailed:
    case Counter::kNetFrameError:
    case Counter::kNetHeartbeat:
    case Counter::kNetPeerUnreachable:
    case Counter::kNetOutOfWindow:
    case Counter::kFoSuspect:
    case Counter::kFoFailover:
    case Counter::kFoRecoverRequest:
    case Counter::kFoRecoverReply:
    case Counter::kFoRecoverCopy:
    case Counter::kFoSyncRequest:
    case Counter::kFoSyncReply:
    case Counter::kFoRequestTimeout:
    case Counter::kFoUnreachable:
    case Counter::kPersistWalAppend:
    case Counter::kPersistWalReplayed:
    case Counter::kPersistWalTruncated:
    case Counter::kPersistCheckpoint:
    case Counter::kPersistCkptRejected:
    case Counter::kPersistRestoredCells:
      return true;
    default:
      return false;
  }
}

/// True for counters that represent one message on the wire.
[[nodiscard]] constexpr bool is_message_counter(Counter c) noexcept {
  switch (c) {
    case Counter::kMsgReadRequest:
    case Counter::kMsgReadReply:
    case Counter::kMsgWriteRequest:
    case Counter::kMsgWriteReply:
    case Counter::kMsgInvalidate:
    case Counter::kMsgInvalidateAck:
    case Counter::kMsgBroadcast:
    case Counter::kMsgInvalBatch:
      return true;
    default:
      return false;
  }
}

/// A plain (non-atomic) snapshot of one node's counters.
struct StatsSnapshot {
  std::array<std::uint64_t, kNumCounters> values{};

  [[nodiscard]] std::uint64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }

  /// Total messages sent by this node.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept;

  StatsSnapshot& operator+=(const StatsSnapshot& other) noexcept;
  friend StatsSnapshot operator-(StatsSnapshot lhs, const StatsSnapshot& rhs) noexcept;

  /// Aligned multi-line rendering: non-zero protocol counters first, then —
  /// when any is non-zero — the net.* recovery counters in their own
  /// section, so protocol vs recovery cost reads at a glance. Names are
  /// left-aligned, values right-aligned.
  [[nodiscard]] std::string to_string() const;
};

/// One node's live counters. Thread-safe via relaxed atomics: counters are
/// statistics, not synchronization.
class NodeStats {
 public:
  void bump(Counter c, std::uint64_t n = 1) noexcept {
    values_[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t get(Counter c) const noexcept {
    return values_[static_cast<std::size_t>(c)].load(std::memory_order_relaxed);
  }

  [[nodiscard]] StatsSnapshot snapshot() const noexcept {
    StatsSnapshot s;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      s.values[i] = values_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

  /// Records one latency sample (nanoseconds) into the metric's histogram.
  void record_latency(LatencyMetric m, std::uint64_t ns) noexcept {
    latency_[static_cast<std::size_t>(m)].record(ns);
  }

  [[nodiscard]] const obs::Histogram& latency(LatencyMetric m) const noexcept {
    return latency_[static_cast<std::size_t>(m)];
  }

  /// The node's event tracer, or nullptr when tracing is disabled. A single
  /// relaxed load — the whole cost of the disabled path at call sites.
  [[nodiscard]] obs::Tracer* tracer() const noexcept {
    return tracer_.load(std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) the node's tracer. The tracer must
  /// outlive every thread that may record through this NodeStats.
  void set_tracer(obs::Tracer* t) noexcept {
    tracer_.store(t, std::memory_order_relaxed);
  }

  /// The system's flight recorder, or nullptr when none is armed. Same
  /// single-relaxed-load seam as tracer(): trigger sites (all cold paths)
  /// check this unconditionally.
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const noexcept {
    return flight_.load(std::memory_order_relaxed);
  }

  /// Attaches (or detaches, with nullptr) the flight recorder. It must
  /// outlive every thread that may trigger through this NodeStats.
  void set_flight_recorder(obs::FlightRecorder* fr) noexcept {
    flight_.store(fr, std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (auto& v : values_) v.store(0, std::memory_order_relaxed);
    for (auto& h : latency_) h.reset();
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumCounters> values_{};
  std::array<obs::Histogram, kNumLatencyMetrics> latency_{};
  std::atomic<obs::Tracer*> tracer_{nullptr};
  std::atomic<obs::FlightRecorder*> flight_{nullptr};
};

/// Counters for a whole system of n nodes.
class StatsRegistry {
 public:
  explicit StatsRegistry(std::size_t n) : per_node_(n) {}

  [[nodiscard]] NodeStats& node(NodeId i) {
    CM_EXPECTS(i < per_node_.size());
    return per_node_[i];
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return per_node_.size(); }

  [[nodiscard]] StatsSnapshot node_snapshot(NodeId i) const {
    CM_EXPECTS(i < per_node_.size());
    return per_node_[i].snapshot();
  }

  /// Sum over all nodes.
  [[nodiscard]] StatsSnapshot total() const {
    StatsSnapshot s;
    for (const auto& n : per_node_) s += n.snapshot();
    return s;
  }

  /// One node's histogram snapshot for a metric.
  [[nodiscard]] obs::HistogramSnapshot latency_snapshot(NodeId i,
                                                        LatencyMetric m) const {
    CM_EXPECTS(i < per_node_.size());
    return per_node_[i].latency(m).snapshot();
  }

  /// Merged histogram over all nodes for a metric.
  [[nodiscard]] obs::HistogramSnapshot latency_total(LatencyMetric m) const {
    obs::HistogramSnapshot s;
    for (const auto& n : per_node_) s += n.latency(m).snapshot();
    return s;
  }

  /// The tracer of node `i`, or nullptr (out of range, or tracing off).
  [[nodiscard]] obs::Tracer* tracer(NodeId i) const noexcept {
    return i < per_node_.size() ? per_node_[i].tracer() : nullptr;
  }

  void reset() {
    for (auto& n : per_node_) n.reset();
  }

 private:
  // deque-like stability not needed; NodeStats is not movable after threads
  // start, so we size once at construction.
  std::vector<NodeStats> per_node_;
};

}  // namespace causalmem
