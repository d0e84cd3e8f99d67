// Transport abstraction: reliable, per-channel FIFO point-to-point message
// passing between processors — exactly the substrate the paper assumes
// ("reliable, ordered message passing between any two processors").
//
// Delivery invokes the destination's handler on the transport's delivery
// thread, or on a sending thread where the transport runs a delivery in
// place (InMemTransport's inline replies and caller-run held sends);
// handlers must be non-blocking state machines (they may send messages and
// complete futures, never wait for other messages).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

#include "causalmem/net/message.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

/// Ticket for a message queued by Transport::send_held(), redeemed by
/// deliver_held(). Empty when the transport had nothing to hold (it sent
/// the message the ordinary way, or dropped it).
struct HeldSend {
  NodeId to{kNoNode};
  std::uint64_t seq{0};  ///< the transport's id for the queued entry

  [[nodiscard]] bool empty() const noexcept { return to == kNoNode; }
};

class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// Optionally attaches per-node counters; transports bump the net.*
  /// counters (send failures, injected faults, retransmissions) on it.
  /// Decorators forward the registry down the stack. Call before start().
  virtual void attach_stats(StatsRegistry* stats) noexcept { stats_ = stats; }

  /// Registers the message handler for node `id`. Must be called for every
  /// node before `start()`.
  virtual void register_node(NodeId id, Handler handler) = 0;

  /// Begins delivering messages.
  virtual void start() = 0;

  /// Enqueues `m` for delivery to `m.to`. Never blocks for the receiver.
  /// Sends after shutdown are dropped (nodes are quiescing).
  virtual void send(Message m) = 0;

  /// First step of a two-step send, for a requester that will block on the
  /// reply. Fixes `m`'s position in its channel exactly like send() — call
  /// it where send() would be called, locks held — but a transport that
  /// can run the delivery on the caller's thread queues the message without
  /// waking the receiver and returns a ticket. The default is send().
  [[nodiscard]] virtual HeldSend send_held(Message m) {
    send(std::move(m));
    return {};
  }

  /// Second step: delivers the message `held` stands for on this thread if
  /// it is still queued and next in line, else hands it to the receiver's
  /// delivery thread. Call it once per ticket, after releasing every lock
  /// the send_held() call site held: the receiver's handler may run here.
  virtual void deliver_held(HeldSend held) { (void)held; }

  /// Stops delivery and joins internal threads. Idempotent.
  virtual void shutdown() = 0;

  /// Number of registered endpoints.
  [[nodiscard]] virtual std::size_t node_count() const = 0;

  /// Whether `id`'s endpoint is currently up. Fault-injecting transports
  /// report crash-injected endpoints as down; fault-free transports are
  /// always up. Decorators forward to the layer that injects crashes.
  [[nodiscard]] virtual bool endpoint_up(NodeId id) const {
    (void)id;
    return true;
  }

  /// Incarnation counter of `id`'s endpoint: bumped on every injected crash
  /// and restart, 0 forever on fault-free transports. A requester whose own
  /// endpoint went down or changed incarnation during a request round
  /// learned nothing about the target from that round's timeout (its
  /// request or reply died with its own endpoint), so failure suspicion
  /// keys on this staying constant across the round.
  [[nodiscard]] virtual std::uint64_t endpoint_epoch(NodeId id) const {
    (void)id;
    return 0;
  }

 protected:
  /// Records a message-level trace event into `node`'s tracer. When tracing
  /// is off (no registry, or no tracer attached) the cost is one null check
  /// plus one relaxed load — transports call this unconditionally.
  void trace_msg(NodeId node, obs::TraceEventKind kind,
                 const Message& m) noexcept {
    if (stats_ == nullptr) return;
    if (obs::Tracer* t = stats_->tracer(node)) {
      t->record(kind, static_cast<std::uint8_t>(m.type),
                node == m.from ? m.to : m.from, m.addr,
                m.stamp.size() != 0 ? &m.stamp : nullptr,
                /*ts_ns=*/0, /*dur_ns=*/0, m.trace_id);
    }
  }

  StatsRegistry* stats_{nullptr};
};

/// Latency injected per message: base + uniform jitter in [0, jitter].
/// Channel FIFO order is preserved regardless of the sampled values.
struct LatencyModel {
  std::chrono::microseconds base{0};
  std::chrono::microseconds jitter{0};
  std::uint64_t seed{0x1d2c3b4a59687766ULL};

  [[nodiscard]] bool is_zero() const noexcept {
    return base.count() == 0 && jitter.count() == 0;
  }
};

}  // namespace causalmem
