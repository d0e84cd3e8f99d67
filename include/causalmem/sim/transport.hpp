// SimTransport: the Transport implementation for deterministic simulation.
//
// No delivery threads. send() only appends to a per-channel FIFO queue; the
// SimScheduler asks for the set of non-empty channels (append_deliverable)
// and pops exactly one head per chosen deliver event (deliver_one), running
// the destination handler inline on the scheduler thread. Per-channel FIFO
// is structural — a linked queue per directed channel — so the substrate
// the paper assumes ("reliable, ordered message passing") holds on every
// schedule while INTER-channel order is fully under the explorer's control.
// Only channels with queued messages are stored, in a vector sorted by
// (from, to), so a step costs what is in flight, not n². Their deliver
// choices are kept beside them as channels fill and drain, so offering them
// is one copy. Queued messages sit in pooled slots that are recycled as
// messages come and go, and the pool's storage passes to the next
// transport built on the same thread, so queueing a message allocates
// nothing once the pool has grown to the peak number in flight.
//
// Crash / partition semantics mirror FaultyTransport so the PR-3 failover
// path behaves identically under simulation: sends from or to a crashed
// node (or across a blocked channel) are dropped and counted as
// kNetFaultDrop against the sender. One deliberate difference: crash_node
// also purges messages already queued from/to the node. In the real
// decorator "in flight" is an OS-timing accident; here the same nuance is
// explorable deterministically — a schedule that delivers a message before
// the crash event models in-flight delivery, one that doesn't models loss.
//
// Header-only on purpose: DsmSystem (a header template) instantiates this
// in its sim branch, and consumers that never simulate (the benches) must
// not acquire a link dependency on the sim library. Everything it calls on
// SimScheduler is inline.
//
// Thread-safety: none needed. Under the cooperative scheduler every task
// is a fiber on the scheduler's thread and exactly one logical thread runs
// at a time, so plain containers are both safe and deterministic here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "causalmem/common/arena.hpp"
#include "causalmem/common/expect.hpp"
#include "causalmem/net/message.hpp"
#include "causalmem/net/transport.hpp"
#include "causalmem/sim/scheduler.hpp"

namespace causalmem::sim {

class SimTransport final : public Transport {
 public:
  /// Creates a simulated transport for nodes 0..n-1 and attaches it to
  /// `sched` (which must outlive this transport). `exercise_codec`
  /// round-trips every message through the byte codec, same as
  /// InMemTransport.
  SimTransport(std::size_t n, SimScheduler* sched, bool exercise_codec = false)
      : exercise_codec_(exercise_codec),
        endpoints_(n),
        blocked_(n * n, 0),
        crashed_(n, 0),
        epochs_(n, 0) {
    CM_EXPECTS(n > 0);
    CM_EXPECTS(sched != nullptr);
    slots_.swap(spare_slots());
    sched->attach_transport(this);
  }

  ~SimTransport() override {
    shutdown();
    slots_.swap(spare_slots());  // emptied, capacity kept for the next run
  }

  // Transport ------------------------------------------------------------
  void register_node(NodeId id, Handler handler) override {
    CM_EXPECTS(id < endpoints_.size());
    CM_EXPECTS_MSG(!started_, "register_node after start()");
    CM_EXPECTS(handler != nullptr);
    endpoints_[id] = std::move(handler);
  }

  void start() override {
    CM_EXPECTS_MSG(!started_, "transport started twice");
    for (const Handler& h : endpoints_) {
      CM_EXPECTS_MSG(h != nullptr, "node missing handler");
    }
    started_ = true;
  }

  void send(Message m) override {
    if (stopped_) return;
    const std::size_t n = endpoints_.size();
    CM_EXPECTS(m.from < n && m.to < n);
    if (exercise_codec_) {
      // Same recycling scheme as InMemTransport::send: pooled frame, swap
      // to reuse message buffers. All deterministic — only byte
      // representation changes, never order.
      std::vector<std::byte> wire = m.encode();
      Message::decode_into(wire, scratch_);
      FrameArena::release(std::move(wire));
      std::swap(m, scratch_);
    }
    if (crashed_[m.from] != 0 || crashed_[m.to] != 0 ||
        blocked_[m.from * n + m.to] != 0) {
      drop(m);
      return;
    }
    trace_msg(m.from, obs::TraceEventKind::kSend, m);
    const std::size_t pos = channel_at(m.from, m.to);
    const bool fresh = !holds_channel(pos, m.from, m.to);
    if (fresh) {
      deliverable_.insert(
          deliverable_.begin() + static_cast<std::ptrdiff_t>(pos),
          Choice{ChoiceKind::kDeliver, m.from, m.to, 0, msg_type_name(m.type)});
    }
    const std::uint32_t slot = take_slot();
    slots_[slot].msg = std::move(m);
    if (fresh) {
      queues_.insert(queues_.begin() + static_cast<std::ptrdiff_t>(pos),
                     Queue{slot, slot});
    } else {
      slots_[queues_[pos].tail].next = slot;
      queues_[pos].tail = slot;
    }
    ++pending_;
  }

  void shutdown() override {
    if (stopped_) return;
    stopped_ = true;
    // Drop undelivered messages silently: receivers are quiescing, same as
    // InMemTransport::shutdown.
    queues_.clear();
    deliverable_.clear();
    slots_.clear();
    free_slot_ = kNoSlot;
    pending_ = 0;
  }

  [[nodiscard]] std::size_t node_count() const override {
    return endpoints_.size();
  }

  [[nodiscard]] bool endpoint_up(NodeId id) const override {
    return !is_crashed(id);
  }

  [[nodiscard]] std::uint64_t endpoint_epoch(NodeId id) const override {
    CM_EXPECTS(id < endpoints_.size());
    return epochs_[id];
  }

  // Fault injection (schedulable events) ----------------------------------
  /// Crashes `id`: queued messages from/to it are purged (each counted as a
  /// kNetFaultDrop against its sender) and subsequent sends from/to it are
  /// dropped until restart_node(id).
  void crash_node(NodeId id) {
    CM_EXPECTS(id < endpoints_.size());
    crashed_[id] = 1;
    ++epochs_[id];
    // Channels are kept in (from, to) order, so drops are counted and traced
    // in the same order on every run. Surviving channels are compacted in
    // place.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      if (deliverable_[i].from != id && deliverable_[i].to != id) {
        queues_[kept] = queues_[i];
        deliverable_[kept] = deliverable_[i];
        ++kept;
        continue;
      }
      for (std::uint32_t s = queues_[i].head; s != kNoSlot;) {
        const Message dropped = std::move(slots_[s].msg);
        drop(dropped);
        --pending_;
        const std::uint32_t next = slots_[s].next;
        give_back_slot(s);
        s = next;
      }
    }
    queues_.resize(kept);
    deliverable_.resize(kept);
  }

  /// Lifts a crash_node(id). Protocol state is NOT touched — the node must
  /// rejoin via DsmSystem::restart_node, as with FaultyTransport.
  void restart_node(NodeId id) {
    CM_EXPECTS(id < endpoints_.size());
    crashed_[id] = 0;
    ++epochs_[id];
  }

  [[nodiscard]] bool is_crashed(NodeId id) const {
    CM_EXPECTS(id < endpoints_.size());
    return crashed_[id] != 0;
  }

  /// Toggles a directed channel partition. Blocked channels drop sends;
  /// messages queued before the cut stay deliverable (in flight), matching
  /// FaultyTransport.
  void set_partition(NodeId from, NodeId to, bool blocked) {
    const std::size_t n = endpoints_.size();
    CM_EXPECTS(from < n && to < n);
    blocked_[from * n + to] = blocked ? 1 : 0;
  }

  // Scheduler interface ----------------------------------------------------
  /// Messages queued and not yet delivered.
  [[nodiscard]] std::size_t pending_count() const noexcept { return pending_; }

  /// Total messages delivered (parity with InMemTransport::delivered_count).
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_;
  }

  /// Appends one kDeliver choice per non-empty channel, in (from, to) order,
  /// labelled with the head message's type.
  void append_deliverable(std::vector<Choice>* out) const {
    out->insert(out->end(), deliverable_.begin(), deliverable_.end());
  }

  /// Delivers the head of channel from->to inline (handler runs on the
  /// calling — scheduler — thread). The channel must be non-empty.
  void deliver_one(NodeId from, NodeId to) {
    const std::size_t n = endpoints_.size();
    CM_EXPECTS(from < n && to < n);
    const std::size_t pos = channel_at(from, to);
    CM_EXPECTS_MSG(holds_channel(pos, from, to),
                   "deliver_one on empty channel");
    Queue& q = queues_[pos];
    const std::uint32_t s = q.head;
    Message m = std::move(slots_[s].msg);
    q.head = slots_[s].next;
    give_back_slot(s);
    if (q.head == kNoSlot) {
      queues_.erase(queues_.begin() + static_cast<std::ptrdiff_t>(pos));
      deliverable_.erase(deliverable_.begin() +
                         static_cast<std::ptrdiff_t>(pos));
    } else {
      deliverable_[pos].label = msg_type_name(slots_[q.head].msg.type);
    }
    --pending_;
    trace_msg(m.to, obs::TraceEventKind::kRecv, m);
    endpoints_[m.to](m);
    ++delivered_;
  }

 private:
  void drop(const Message& m) {
    if (stats_ != nullptr) stats_->node(m.from).bump(Counter::kNetFaultDrop);
    // trace_msg is non-const only through stats_, safe from crash purge.
    trace_msg(m.from, obs::TraceEventKind::kFaultDrop, m);
  }

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One queued message and the next slot of its channel (or of the free
  /// list).
  struct Slot {
    Message msg;
    std::uint32_t next{kNoSlot};
  };

  /// A non-empty channel's FIFO: its first and last slots.
  struct Queue {
    std::uint32_t head;
    std::uint32_t tail;
  };

  /// Where channel from->to is (or belongs) in deliverable_ and queues_.
  [[nodiscard]] std::size_t channel_at(NodeId from, NodeId to) const {
    const auto it = std::lower_bound(
        deliverable_.begin(), deliverable_.end(), std::pair{from, to},
        [](const Choice& c, std::pair<NodeId, NodeId> k) {
          return std::pair{c.from, c.to} < k;
        });
    return static_cast<std::size_t>(it - deliverable_.begin());
  }

  [[nodiscard]] bool holds_channel(std::size_t pos, NodeId from,
                                   NodeId to) const {
    return pos < deliverable_.size() && deliverable_[pos].from == from &&
           deliverable_[pos].to == to;
  }

  std::uint32_t take_slot() {
    if (free_slot_ == kNoSlot) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t s = free_slot_;
    free_slot_ = slots_[s].next;
    slots_[s].next = kNoSlot;
    return s;
  }

  void give_back_slot(std::uint32_t s) {
    slots_[s].next = free_slot_;
    free_slot_ = s;
  }

  /// Slot storage left by the last transport destroyed on this thread.
  static std::vector<Slot>& spare_slots() {
    thread_local std::vector<Slot> spare;
    return spare;
  }

  bool exercise_codec_;
  /// The codec round trip's decode target, recycled across sends.
  Message scratch_;
  std::vector<Handler> endpoints_;
  /// One deliver choice per non-empty channel, in (from, to) order,
  /// labelled with the channel head's type. A channel is removed when its
  /// last message leaves.
  std::vector<Choice> deliverable_;
  /// The queue of each channel in deliverable_, at the same position.
  std::vector<Queue> queues_;
  /// Every queued message, plus free slots chained from free_slot_.
  std::vector<Slot> slots_;
  std::uint32_t free_slot_{kNoSlot};
  std::vector<std::uint8_t> blocked_;  // n*n, directed
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint64_t> epochs_;  ///< per-endpoint crash/restart count
  std::size_t pending_{0};
  std::uint64_t delivered_{0};
  bool started_{false};
  bool stopped_{false};
};

}  // namespace causalmem::sim
