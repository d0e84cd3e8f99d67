// In-memory transport: one delivery thread per destination node draining a
// deadline-ordered queue. Per-channel FIFO is guaranteed by making each
// (src,dst) channel's delivery deadlines monotonic, so jittered latency can
// never reorder a channel.
//
// Three kinds of thread deliver to an endpoint, the last two only on
// zero-latency channels:
//   - its worker, which pops queued messages;
//   - a requester redeeming a send_held() ticket (caller-run delivery): it
//     pops its own queued message, after any ready ones queued before it,
//     and runs the receiver's handler itself, so the worker is never woken
//     for it;
//   - the sender of a reply-type message on an idle channel (inline
//     delivery), which runs the handler without queueing at all.
// The worker and caller-run deliveries share one delivery slot per
// endpoint, so queued messages are delivered one at a time, in queue order,
// each by exactly one thread. Each channel counts its queued and
// in-delivery messages and flags a running inline delivery: an inline
// delivery needs a completely idle channel, and a queued message is never
// delivered while an inline delivery on its channel still runs. A
// channel's handlers therefore run strictly one after another, in send
// order, whichever threads run them.
// Only message types that every protocol sends with no node lock held are
// inline-eligible — see inline_eligible() in the .cpp for the proof
// obligation; caller-run delivery is the requester's explicit choice.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/net/transport.hpp"

namespace causalmem {

class InMemTransport final : public Transport {
 public:
  /// Creates a transport for nodes 0..n-1.
  /// `exercise_codec` round-trips every message through the byte codec, so
  /// tests prove the wire format even without the TCP transport.
  explicit InMemTransport(std::size_t n, LatencyModel latency = {},
                          bool exercise_codec = false);
  ~InMemTransport() override;

  void register_node(NodeId id, Handler handler) override;
  void start() override;
  void send(Message m) override;
  /// Holds the message only on a zero-latency channel; elsewhere send().
  [[nodiscard]] HeldSend send_held(Message m) override;
  void deliver_held(HeldSend held) override;
  void shutdown() override;
  [[nodiscard]] std::size_t node_count() const override { return endpoints_.size(); }

  /// Total messages delivered so far (all nodes).
  [[nodiscard]] std::uint64_t delivered_count() const noexcept {
    return delivered_.load(std::memory_order_relaxed);
  }

  /// Overrides the latency of one directed channel (tests drive specific
  /// interleavings with this, e.g. the Figure 3 counterexample). Must be
  /// called before start() — enforced; DsmSystem callers pass
  /// SystemOptions::channel_latencies instead.
  void set_channel_latency(NodeId from, NodeId to, LatencyModel latency);

 private:
  using Clock = std::chrono::steady_clock;

  struct Envelope {
    Clock::time_point deliver_at;
    std::uint64_t seq;  ///< tie-break so equal deadlines stay FIFO
    Message msg;
  };

  struct EnvelopeLater {
    bool operator()(const Envelope& a, const Envelope& b) const noexcept {
      if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
      return a.seq > b.seq;
    }
  };

  struct Endpoint {
    Handler handler;
    std::mutex mu;
    std::condition_variable cv;
    std::priority_queue<Envelope, std::vector<Envelope>, EnvelopeLater> queue;
    std::uint64_t next_seq{0};
    // The delivery slot: a popped queued message is being delivered, by the
    // worker or by a caller-run requester.
    bool delivering{false};
    bool stopped{false};
    std::jthread worker;
  };

  struct Channel {
    std::mutex mu;
    Clock::time_point last_deadline{};
    Rng rng{0};
    bool has_override{false};
    LatencyModel override_latency{};
    // exercise_codec state: a scratch Message whose stamp/cells capacity is
    // recycled across round-trips (send swaps the decoded message out and
    // the caller's buffers in), so the steady-state codec path never
    // allocates.
    Message scratch;
    // Queued messages on this channel, counting one whose delivery is
    // still running, plus kInlineRunning while an inline delivery runs. 0
    // means the channel is completely idle, which is what licenses the
    // inline-delivery fast path.
    std::atomic<std::uint32_t> inflight{0};
  };
  static constexpr std::uint32_t kInlineRunning = 1U << 31;

  [[nodiscard]] HeldSend post(Message m, bool hold);
  /// Pops ep's first message and delivers it on this thread, holding the
  /// delivery slot. Called with ep.mu held and the slot free; returns with
  /// ep.mu held again and the slot free.
  void deliver_next(Endpoint& ep, std::unique_lock<std::mutex>& lock);
  /// Whether ep's first message may be delivered now: the slot is free, its
  /// deadline has passed and no inline delivery runs on its channel.
  [[nodiscard]] bool next_is_ready(const Endpoint& ep);
  void run_endpoint(Endpoint& ep);
  [[nodiscard]] Channel& channel_of(const Message& m) {
    return *channels_[m.from * endpoints_.size() + m.to];
  }
  [[nodiscard]] Clock::time_point next_deadline_locked(Channel& ch);

  LatencyModel latency_;
  bool exercise_codec_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, index from*n+to
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> delivered_{0};
};

}  // namespace causalmem
