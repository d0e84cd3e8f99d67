// Reliable-delivery adapter: restores the paper's "reliable, ordered message
// passing between any two processors" contract on top of an unreliable
// transport (typically a FaultyTransport injecting drop/dup/delay).
//
// Mechanism, per directed channel (s -> d):
//   - the sender stamps every message with a per-channel sequence number
//     (Message::rel_seq, 1-based) and keeps a copy until it is acked; the
//     copies live in a deque of consecutive sequence numbers, so a
//     cumulative ack is a prefix pop, not a map search;
//   - the receiver delivers strictly in sequence order, buffering gaps in a
//     bounded ring (ReliableConfig::reorder_window slots) and dropping
//     duplicates, so the layer above sees exactly-once FIFO. A frame past
//     the window is dropped and counted (net.out_of_window) — the sender's
//     retransmission redelivers it once the window opens, so boundedness
//     costs no correctness, only a retransmit;
//   - the receiver acks cumulatively: a standalone REL_ACK after every data
//     frame, plus a piggybacked ack (Message::rel_ack) on reverse-channel
//     data, both meaning "everything <= k arrived";
//   - a retransmission thread re-sends unacked messages after a timeout
//     that backs off exponentially per message (initial_rto doubling up to
//     max_rto); its scan loop paces itself with common/backoff.hpp.
//
// DSM nodes use the adapter unchanged through the Transport interface: the
// wrapped handler re-assembles the channel and invokes the node's handler
// with the original message (rel_* fields are transport-private).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalmem/net/transport.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

struct ReliableConfig {
  /// First retransmission timeout. Generous relative to a loopback RTT so a
  /// fault-free channel never retransmits spuriously.
  std::chrono::microseconds initial_rto{2000};
  /// Exponential backoff cap: rto doubles per retransmission up to this.
  std::chrono::microseconds max_rto{64000};
  /// Upper bound on the retransmit scan pacing (Backoff max_sleep).
  std::chrono::microseconds tick{500};
  /// Retransmissions per message before the sender gives up (the peer is
  /// presumed dead — counted as net.peer_unreachable). Lossy-but-alive
  /// channels are unaffected: at drop rate p the give-up probability is
  /// p^max_retransmits. 0 = never give up (the pre-crash-tolerance
  /// behaviour: infinite RTO backoff).
  std::uint32_t max_retransmits{20};
  /// Receiver-side reorder-buffer bound, in frames per directed channel. A
  /// frame with rel_seq >= next_deliver_seq + reorder_window is dropped (and
  /// counted as net.out_of_window) instead of buffered, so a hostile or
  /// wildly reordered sender cannot grow the buffer without limit. The
  /// sender's retransmission recovers the dropped frame.
  std::size_t reorder_window{64};
};

class ReliableChannel final : public Transport {
 public:
  explicit ReliableChannel(std::unique_ptr<Transport> inner,
                           ReliableConfig config = {});
  ~ReliableChannel() override;

  void register_node(NodeId id, Handler handler) override;
  void start() override;
  void send(Message m) override;
  [[nodiscard]] HeldSend send_held(Message m) override;
  void deliver_held(HeldSend held) override;
  void shutdown() override;
  [[nodiscard]] std::size_t node_count() const override {
    return inner_->node_count();
  }
  [[nodiscard]] bool endpoint_up(NodeId id) const override {
    return inner_->endpoint_up(id);
  }
  [[nodiscard]] std::uint64_t endpoint_epoch(NodeId id) const override {
    return inner_->endpoint_epoch(id);
  }
  void attach_stats(StatsRegistry* stats) noexcept override;

  [[nodiscard]] Transport& inner() noexcept { return *inner_; }

  // Recovery-cost totals (also bumped per node when a StatsRegistry is
  // attached: retransmits/acks on the sender, dup-drops on the receiver).
  [[nodiscard]] std::uint64_t retransmit_count() const noexcept {
    return retransmits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dup_dropped_count() const noexcept {
    return dup_drops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t acks_sent_count() const noexcept {
    return acks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t peer_unreachable_count() const noexcept {
    return peer_unreachable_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t out_of_window_count() const noexcept {
    return out_of_window_.load(std::memory_order_relaxed);
  }

  /// Forgets all sequencing state on every channel to or from `id`: pending
  /// retransmissions are dropped and both directions restart at sequence 1.
  /// Call while the peer's traffic is still severed (crashed/partitioned) —
  /// this is the channel half of a node restart, pairing with
  /// FaultyTransport::restart_node. Without it a give-up (or the peer's
  /// loss of its receive state) would wedge the channel on a sequence gap.
  void reset_peer(NodeId id);

 private:
  struct Pending {
    Message msg;
    /// Retransmission deadline in obs::now_ns() time — virtual under a
    /// FakeClock, so simulated time fully controls retransmission.
    std::uint64_t deadline_ns{0};
    std::chrono::microseconds rto;
    /// obs::now_ns() at first transmission — retransmission-delay samples
    /// (lat.retransmit_delay_ns) measure from here.
    std::uint64_t first_sent_ns{0};
    /// Retransmissions so far; at config_.max_retransmits the sender gives
    /// up on this message (net.peer_unreachable).
    std::uint32_t retries{0};
    /// Given up (peer presumed dead). Dead entries cannot be erased from
    /// the middle of the deque; they are skipped by the retransmit scan and
    /// popped once they reach the front (by an ack or the dead-prefix pop).
    bool dead{false};
  };

  /// Both halves of one directed channel (s -> d): the sender half lives at
  /// s, the receiver half at d; in-process transports hold them together.
  struct Channel {
    std::mutex mu;
    // Sender side: outstanding[i] holds sequence number base_seq + i — the
    // seqs are consecutive by construction, so the deque IS the window and
    // a cumulative ack is a prefix pop. Invariant:
    // base_seq + outstanding.size() == next_send_seq.
    std::uint64_t next_send_seq{1};
    std::uint64_t base_seq{1};
    std::deque<Pending> outstanding;
    // Receiver side: slot seq % reorder_window buffers seq — within the
    // window [next_deliver_seq, next_deliver_seq + W) slots are unique, so
    // the `present` bit alone identifies a buffered frame.
    std::uint64_t next_deliver_seq{1};
    std::vector<Message> ring;
    std::vector<std::uint8_t> present;
    // True while one thread is popping ready frames and delivering them
    // outside the lock. Frames can arrive on multiple threads (the inner
    // transport's delivery worker, sender threads when the inner transport
    // delivers replies inline, and writers redeeming a held send), so
    // without this flag two threads could each pop a ready batch and then
    // interleave their out-of-lock handler calls, breaking per-channel
    // FIFO. The drainer re-checks the ring after each batch, so frames
    // installed during its delivery are picked up before it retires.
    bool draining{false};
  };

  [[nodiscard]] Channel& channel(NodeId from, NodeId to) {
    return *channels_[from * inner_->node_count() + to];
  }
  void bump_node(NodeId node, Counter c) noexcept;
  /// Stamps an outgoing message with its channel sequence number and the
  /// reverse channel's ack, and keeps a copy for retransmission. False
  /// after shutdown (the message is dropped).
  [[nodiscard]] bool sequence(Message& m);
  void on_receive(const Message& m);
  void apply_ack(NodeId sender, NodeId receiver, std::uint64_t acked);
  void send_ack(NodeId receiver, NodeId sender, std::uint64_t acked);
  bool retransmit_due();  ///< one scan; true if anything was re-sent
  void run_retransmitter(const std::stop_token& st);

  std::unique_ptr<Transport> inner_;
  ReliableConfig config_;
  std::vector<Handler> handlers_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, index from*n+to

  std::jthread retransmitter_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> retransmits_{0};
  std::atomic<std::uint64_t> dup_drops_{0};
  std::atomic<std::uint64_t> acks_{0};
  std::atomic<std::uint64_t> peer_unreachable_{0};
  std::atomic<std::uint64_t> out_of_window_{0};
};

}  // namespace causalmem
