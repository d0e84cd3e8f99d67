// Crash tolerance for the owner protocol: a failure-detector-fed ownership
// directory plus an optional heartbeat prober.
//
// The paper assumes owners live forever ("the locations assigned to a
// processor are owned by that processor"). FailoverDirectory relaxes that:
// it wraps the static Ownership map and, when a node is suspected (by a
// request deadline expiring, or by the heartbeat monitor), deterministically
// migrates the suspect's locations to a successor — the next live node in
// ring order. The successor reconstructs each page's state lazily, on first
// demand, by a writestamp-max election over the live nodes' freshest
// observed copies (CausalRecovery, dsm/causal/recovery.hpp); requesters
// that timed out simply re-resolve the owner and retry, so in-flight
// operations re-route without any coordination beyond the directory.
//
// Everything here is recovery-path machinery: its counters are net.*/fo.*
// recovery counters, never message counters, so the paper's 2n+6 accounting
// is untouched on the fault-free path.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "causalmem/common/types.hpp"
#include "causalmem/dsm/ownership.hpp"
#include "causalmem/dsm/sharding.hpp"
#include "causalmem/net/transport.hpp"
#include "causalmem/stats/counters.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem {

/// Deterministic "which copy wins" order for the writestamp-max election:
/// strictly-after wins; concurrent stamps tie-break by component sum, then
/// lexicographically — every node evaluating the same pair picks the same
/// winner, so independent elections over the same copies agree.
[[nodiscard]] bool fresher_stamp(const VectorClock& a, const VectorClock& b);

/// Ownership decorator holding the live view of "who owns what": the static
/// base map plus a per-node reroute set by failover. Reads (`owner`) are
/// lock-free; mutations (suspect/restart) serialize on one mutex.
class FailoverDirectory final : public Ownership {
 public:
  FailoverDirectory(std::unique_ptr<Ownership> base, std::size_t n,
                    StatsRegistry* stats);

  /// Current owner of x: the base owner, with reroutes followed
  /// transitively (a successor may itself have failed over).
  [[nodiscard]] NodeId owner(Addr x) const override;

  /// The static pre-failover owner of x.
  [[nodiscard]] NodeId base_owner(Addr x) const { return base_->owner(x); }

  [[nodiscard]] bool is_down(NodeId id) const {
    return down_[id].load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// All nodes currently believed alive, excluding `self`.
  [[nodiscard]] std::vector<NodeId> live_peers(NodeId self) const;

  /// Reports `suspect` as failed (reporter = kNoNode for the heartbeat
  /// monitor). Idempotent: the first report migrates the suspect's
  /// locations to the next live node in ring order and returns true; later
  /// reports (and reports with no live successor) return false.
  bool suspect(NodeId suspect, NodeId reporter);

  /// Failure-detector input: `subject` was just heard from.
  void record_alive(NodeId subject);

  /// Nanosecond obs::now_ns() stamp of the last sign of life from `id`.
  [[nodiscard]] std::uint64_t last_alive_ns(NodeId id) const {
    return last_alive_[id].load(std::memory_order_acquire);
  }

  /// Re-admits a restarted node: clears its down flag and refreshes its
  /// liveness stamp. Ownership does NOT revert — pages migrated away stay
  /// with their successor; the restarted node rejoins as a peer.
  void mark_restarted(NodeId id);

  /// Declares whether `id` has durable storage attached (a persist::Store).
  /// suspect() prefers the next live DURABLE node in ring order as the
  /// successor — a durable successor that later crashes itself can restore
  /// the migrated pages from its checkpoint + WAL instead of depending on
  /// whatever copies happen to survive in peers' caches. With no durable
  /// candidate the choice falls back to the plain next-live rule, so
  /// persistence-free systems are unaffected.
  void set_durable(NodeId id, bool durable);

  /// Attaches the consistent-hash ring whose successor order should drive
  /// failover migration. With a ring attached, suspect() walks the dead
  /// node's hash-ring successors (durable-preferred, as before) instead of
  /// node-id order, so a crashed shard's pages rebalance to the same nodes
  /// that would absorb its ring segment. The ring must outlive the
  /// directory; pass nullptr to detach.
  void attach_ring(const HashRing* ring) { ring_ = ring; }

 private:
  const std::size_t n_;
  std::unique_ptr<Ownership> base_;
  StatsRegistry* stats_;
  std::mutex mu_;  // serializes suspect()/mark_restarted()
  std::vector<std::atomic<NodeId>> reroute_;     // kNoNode = not rerouted
  std::vector<std::atomic<bool>> down_;
  std::vector<std::atomic<bool>> durable_;       // set_durable()
  std::vector<std::atomic<std::uint64_t>> last_alive_;
  const HashRing* ring_{nullptr};  // optional; attach_ring()
};

struct HeartbeatConfig {
  /// Probe period. Probes ride below the reliable layer (fire-and-forget,
  /// never retransmitted) and are recovery traffic, not protocol messages.
  std::chrono::microseconds interval{2000};
  /// Silence threshold: a node not heard from (probe or any protocol
  /// message) for this long is suspected.
  std::chrono::microseconds suspect_after{20000};
};

/// Active failure detector: one thread probing every live node from every
/// other live node each interval, and suspecting nodes whose last sign of
/// life (maintained by FailoverDirectory::record_alive, fed by ALL incoming
/// traffic) is older than `suspect_after`. Deadline-driven suspicion in
/// CausalRecovery works without this; the monitor covers idle systems where
/// no request would ever hit a deadline.
class HeartbeatMonitor {
 public:
  /// `transport` must be the layer BELOW the ReliableChannel (probes must
  /// not be retransmitted to a dead peer forever); all pointers must
  /// outlive the monitor.
  HeartbeatMonitor(Transport* transport, FailoverDirectory* directory,
                   HeartbeatConfig config, StatsRegistry* stats);

  void start();
  void stop();  ///< idempotent; joins the prober thread

  /// One probe-and-scan round, non-blocking. The prober thread calls this
  /// every interval of obs::now_ns() time; simulation mode skips start()
  /// and fires it from a scheduler timer instead.
  void tick();

  ~HeartbeatMonitor() { stop(); }
  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

 private:
  void run(const std::stop_token& st);

  Transport* transport_;
  FailoverDirectory* directory_;
  HeartbeatConfig config_;
  StatsRegistry* stats_;
  std::jthread prober_;
  std::atomic<bool> running_{false};
};

}  // namespace causalmem
