// SimTransport: the Transport implementation for deterministic simulation.
//
// No delivery threads. send() only appends to a per-channel FIFO queue; the
// SimScheduler asks for the set of non-empty channels (append_deliverable)
// and pops exactly one head per chosen deliver event (deliver_one), running
// the destination handler inline on the scheduler thread. Per-channel FIFO
// is structural — a deque per directed channel — so the substrate the paper
// assumes ("reliable, ordered message passing") holds on every schedule
// while INTER-channel order is fully under the explorer's control. Only
// channels with queued messages are stored, in an ordered map keyed by
// from*n+to, so a step costs what is in flight, not n². Their deliver
// choices are kept beside them as channels fill and drain, so offering them
// is one copy.
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
#include <deque>
#include <map>
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
        codec_(exercise_codec ? n * n : 0),
        blocked_(n * n, 0),
        crashed_(n, 0),
        epochs_(n, 0) {
    CM_EXPECTS(n > 0);
    CM_EXPECTS(sched != nullptr);
    sched->attach_transport(this);
  }

  ~SimTransport() override { shutdown(); }

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
      // Same recycling scheme as InMemTransport::send: pooled frame,
      // per-channel clock-delta baselines (encode/decode inline keeps them
      // in lockstep on every schedule), swap to reuse message buffers. All
      // deterministic — only byte representation changes, never order.
      CodecState& cs = codec_[m.from * n + m.to];
      std::vector<std::byte> wire = m.encode(cs.tx);
      Message::decode_into(wire, cs.scratch, &cs.rx);
      FrameArena::release(std::move(wire));
      std::swap(m, cs.scratch);
    }
    if (crashed_[m.from] != 0 || crashed_[m.to] != 0 ||
        blocked_[m.from * n + m.to] != 0) {
      drop(m);
      return;
    }
    trace_msg(m.from, obs::TraceEventKind::kSend, m);
    std::deque<Message>& q = channels_[m.from * n + m.to];
    if (q.empty()) {
      deliverable_.insert(deliverable_at(m.from, m.to),
                          Choice{ChoiceKind::kDeliver, m.from, m.to, 0,
                                 msg_type_name(m.type)});
    }
    q.push_back(std::move(m));
    ++pending_;
  }

  void shutdown() override {
    if (stopped_) return;
    stopped_ = true;
    // Drop undelivered messages silently: receivers are quiescing, same as
    // InMemTransport::shutdown.
    channels_.clear();
    deliverable_.clear();
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
    const std::size_t n = endpoints_.size();
    // Key order is (from, to) order, so drops are counted and traced in the
    // same order on every run.
    for (auto it = channels_.begin(); it != channels_.end();) {
      if (it->first / n != id && it->first % n != id) {
        ++it;
        continue;
      }
      for (const Message& m : it->second) drop(m);
      pending_ -= it->second.size();
      deliverable_.erase(deliverable_at(static_cast<NodeId>(it->first / n),
                                        static_cast<NodeId>(it->first % n)));
      it = channels_.erase(it);
    }
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
    const auto it = channels_.find(from * n + to);
    CM_EXPECTS_MSG(it != channels_.end(), "deliver_one on empty channel");
    Message m = std::move(it->second.front());
    it->second.pop_front();
    const auto choice = deliverable_at(from, to);
    if (it->second.empty()) {
      channels_.erase(it);
      deliverable_.erase(choice);
    } else {
      choice->label = msg_type_name(it->second.front().type);
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

  /// deliverable_'s choice for channel from->to, or where it belongs.
  std::vector<Choice>::iterator deliverable_at(NodeId from, NodeId to) {
    return std::lower_bound(deliverable_.begin(), deliverable_.end(),
                            std::pair{from, to},
                            [](const Choice& c, std::pair<NodeId, NodeId> k) {
                              return std::pair{c.from, c.to} < k;
                            });
  }

  /// Per directed channel: clock-delta baselines + recycled decode target.
  struct CodecState {
    ClockCodecState tx;
    ClockCodecState rx;
    Message scratch;
  };

  bool exercise_codec_;
  std::vector<Handler> endpoints_;
  /// Non-empty channels only, keyed by from*n+to: key order is (from, to)
  /// order, and a channel is erased when its last message leaves.
  std::map<std::size_t, std::deque<Message>> channels_;
  /// One deliver choice per entry of channels_, in the same order, labelled
  /// with the channel head's type.
  std::vector<Choice> deliverable_;
  std::vector<CodecState> codec_;      // n*n when exercising, else 0
  std::vector<std::uint8_t> blocked_;  // n*n, directed
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint64_t> epochs_;  ///< per-endpoint crash/restart count
  std::size_t pending_{0};
  std::uint64_t delivered_{0};
  bool started_{false};
  bool stopped_{false};
};

}  // namespace causalmem::sim
