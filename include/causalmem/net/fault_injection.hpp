// Fault-injection transport decorator. The paper assumes "reliable, ordered
// message passing between any two processors"; FaultyTransport deliberately
// breaks that assumption — seeded, per-channel message drop, duplication and
// extra delay, plus one-shot node-crash and channel-partition toggles — so
// the reliable-delivery adapter (reliable_channel.hpp) and the protocols
// above it can be tested against an explicit fault model instead of a
// trusted substrate.
//
// Faults are injected on the SEND side: a dropped message never reaches the
// inner transport, a duplicated or delayed copy re-enters it later from the
// decorator's timer thread. Delay deliberately breaks per-channel FIFO
// (a delayed message is overtaken by later sends on the same channel).
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
#include "causalmem/stats/counters.hpp"

namespace causalmem {

/// Per-message fault probabilities and delay distribution. All randomness is
/// drawn from per-channel SplitMix64 streams derived from `seed`, so a given
/// send sequence on a channel sees a reproducible fault sequence.
struct FaultModel {
  double drop_rate{0.0};   ///< P(message silently dropped)
  double dup_rate{0.0};    ///< P(an extra delayed copy is injected)
  double delay_rate{0.0};  ///< P(message held back by delay_base + jitter)

  /// Extra delay for delayed messages and duplicated copies:
  /// base + uniform[0, jitter].
  std::chrono::microseconds delay_base{500};
  std::chrono::microseconds delay_jitter{500};

  std::uint64_t seed{0xFA17FA17FA17FA17ULL};

  /// True when any probabilistic fault is enabled (crash/partition toggles
  /// are runtime calls and do not depend on this).
  [[nodiscard]] bool any() const noexcept {
    return drop_rate > 0.0 || dup_rate > 0.0 || delay_rate > 0.0;
  }
};

/// Wraps any Transport and injects the FaultModel on every send. Crash and
/// partition toggles are independent of the probabilistic model, so a test
/// can run fault-free and then kill one node or cut one channel.
class FaultyTransport final : public Transport {
 public:
  FaultyTransport(std::unique_ptr<Transport> inner, FaultModel model);
  ~FaultyTransport() override;

  void register_node(NodeId id, Handler handler) override;
  void start() override;
  void send(Message m) override;
  [[nodiscard]] HeldSend send_held(Message m) override;
  void deliver_held(HeldSend held) override;
  void shutdown() override;
  [[nodiscard]] std::size_t node_count() const override {
    return inner_->node_count();
  }
  void attach_stats(StatsRegistry* stats) noexcept override;

  /// Crash: from now on every message from or to `id` is dropped, until a
  /// matching restart_node(id). Messages already inside the inner transport
  /// (or the delay queue) may still be delivered — exactly like a real
  /// crash, which cannot recall packets in flight.
  void crash_node(NodeId id);

  /// Lifts a crash_node(id): messages from/to `id` flow again. The node's
  /// protocol state is NOT touched here — a restarted DSM node must rejoin
  /// explicitly (resync its clock and drop stale channel state); see
  /// DsmSystem::restart_node for the full sequence.
  void restart_node(NodeId id);

  [[nodiscard]] bool is_crashed(NodeId id) const {
    return crashed_[id].load(std::memory_order_acquire);
  }

  [[nodiscard]] bool endpoint_up(NodeId id) const override {
    return !is_crashed(id);
  }

  [[nodiscard]] std::uint64_t endpoint_epoch(NodeId id) const override {
    return epochs_[id].load(std::memory_order_acquire);
  }

  /// Toggles a directed channel partition. Blocked channels drop every
  /// message; healing re-opens the channel for messages sent afterwards.
  void set_partition(NodeId from, NodeId to, bool blocked);

  [[nodiscard]] Transport& inner() noexcept { return *inner_; }

  // Injected-fault totals (also bumped per sending node when a
  // StatsRegistry is attached).
  [[nodiscard]] std::uint64_t drops_injected() const noexcept {
    return drops_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dups_injected() const noexcept {
    return dups_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delays_injected() const noexcept {
    return delays_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Channel {
    std::mutex mu;
    Rng rng{0};
    bool blocked{false};
  };

  struct Delayed {
    Clock::time_point send_at;
    std::uint64_t seq;  ///< tie-break keeps equal deadlines deterministic
    Message msg;
  };

  struct DelayedLater {
    bool operator()(const Delayed& a, const Delayed& b) const noexcept {
      if (a.send_at != b.send_at) return a.send_at > b.send_at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] Channel& channel(NodeId from, NodeId to) {
    return *channels_[from * inner_->node_count() + to];
  }
  void bump_node(NodeId node, Counter c) noexcept;
  /// Applies crash, partition and the fault model to one send. True when
  /// `m` goes on to the inner transport now, false when it was dropped or
  /// delayed (a duplicate copy is queued here and `m` still goes on).
  [[nodiscard]] bool admit(Message& m);
  void enqueue_delayed(Message m, std::chrono::microseconds delay);
  void run_timer();

  std::unique_ptr<Transport> inner_;
  FaultModel model_;
  std::vector<std::unique_ptr<Channel>> channels_;  // n*n, index from*n+to
  std::vector<std::atomic<bool>> crashed_;
  std::vector<std::atomic<std::uint64_t>> epochs_;  // crash/restart count

  std::mutex delay_mu_;
  std::condition_variable delay_cv_;
  std::priority_queue<Delayed, std::vector<Delayed>, DelayedLater> delay_queue_;
  std::uint64_t delay_seq_{0};
  bool timer_stop_{false};
  std::jthread timer_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> dups_{0};
  std::atomic<std::uint64_t> delays_{0};
};

}  // namespace causalmem
