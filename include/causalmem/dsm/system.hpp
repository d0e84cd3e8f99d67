// DsmSystem<NodeT>: wires n nodes of one memory flavour to a transport and a
// stats registry. This is the top-level object applications construct; see
// examples/quickstart.cpp.
#pragma once

#include <chrono>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "causalmem/common/expect.hpp"
#include "causalmem/dsm/causal/recovery.hpp"
#include "causalmem/dsm/failover.hpp"
#include "causalmem/dsm/memory.hpp"
#include "causalmem/dsm/observer.hpp"
#include "causalmem/dsm/ownership.hpp"
#include "causalmem/dsm/sharding.hpp"
#include "causalmem/history/online_checker.hpp"
#include "causalmem/net/fault_injection.hpp"
#include "causalmem/net/inmem_transport.hpp"
#include "causalmem/net/reliable_channel.hpp"
#include "causalmem/net/tcp_transport.hpp"
#include "causalmem/obs/flight_recorder.hpp"
#include "causalmem/obs/trace.hpp"
#include "causalmem/persist/store.hpp"
#include "causalmem/sim/transport.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem {

/// One directed-channel latency override (in-memory transport only).
struct ChannelLatencyOverride {
  NodeId from{0};
  NodeId to{0};
  LatencyModel latency{};
};

/// Protocol event tracing (obs::Tracer). Off by default: the disabled path
/// at every instrumentation site is one relaxed load of a null pointer, so
/// message counts and protocol behaviour are bit-identical with tracing off.
struct TraceOptions {
  bool enabled{false};
  /// Ring-buffer capacity per node (rounded up to a power of two);
  /// wraparound keeps the newest events.
  std::size_t events_per_node{1u << 16};
};

/// Anomaly-triggered flight recorder (obs/flight_recorder.hpp): on the first
/// checker violation, unreachable operation, failover election, counter
/// trigger or explicit dump(), every node's trace ring, counters, histograms,
/// vector clocks and recent-op history freeze into one artifact directory.
struct FlightOptions {
  bool enabled{false};
  /// Forces trace.enabled on (an artifact without a trace is near-useless);
  /// set this false to keep tracing off and record counters/state only.
  bool force_trace{true};
  obs::FlightRecorderOptions recorder{};
};

/// Crash tolerance (see dsm/failover.hpp and PROTOCOL.md §Failover).
struct FailoverOptions {
  /// Wrap the ownership map in a FailoverDirectory and give every node a
  /// CausalRecovery: request deadlines file suspicions, suspected owners'
  /// locations migrate to a ring successor, and DsmSystem::restart_node
  /// becomes available. Requires CausalNode with page_size 1.
  bool enabled{false};
  /// Also run the active HeartbeatMonitor (probes below the reliable layer)
  /// so idle systems detect crashes too. Off by default: probes are
  /// recovery traffic, but a zero-probe run keeps even the recovery
  /// counters silent for message-accounting experiments.
  bool heartbeat{false};
  HeartbeatConfig heartbeat_config{};
};

/// Online streaming causal checking (docs/CHECKING.md): chain an
/// OnlineChecker in front of the user observer so every operation flows
/// through a StreamingCausalChecker while the system runs. The first
/// violation is latched and — when the flight recorder is armed — filed
/// from the shutdown path (deferred: observer callbacks run under node
/// locks, a dump probes them). Inspect via DsmSystem::online_checker().
struct OnlineCheckOptions {
  bool enabled{false};
  StreamingOptions checker{};
};

/// Consistent-hash sharding (docs/SHARDING.md): replace the default striped
/// ownership with a HashRingOwnership and attach the ring to the failover
/// directory so succession follows hash-ring order. Excludes an explicit
/// `ownership` argument (the ring IS the ownership map). The per-page
/// copyset/push-invalidation features are orthogonal CausalConfig flags.
struct ShardingOptions {
  bool enabled{false};
  /// Ring points per node; more points = smoother balance, bigger ring.
  std::size_t virtual_nodes{8};
};

struct SystemOptions {
  /// Injected per-message latency (in-memory transport only).
  LatencyModel latency{};
  /// Per-channel latency overrides, applied before the transport starts
  /// (set_channel_latency's contract). In-memory transport only.
  std::vector<ChannelLatencyOverride> channel_latencies;
  /// Run over real loopback TCP sockets instead of the in-memory transport.
  bool use_tcp{false};
  /// In-memory transport: round-trip every message through the byte codec.
  bool exercise_codec{false};
  /// Fault injection: when faults.any(), the base transport is wrapped in a
  /// FaultyTransport (seeded drop/dup/delay). Without `reliable` the
  /// protocols lose the paper's reliable-FIFO assumption and a blocked
  /// requester can wait forever — enable faults only together with
  /// `reliable` unless the test wants exactly that failure.
  FaultModel faults{};
  /// Wrap the (possibly faulty) transport in a ReliableChannel, restoring
  /// reliable-FIFO delivery via sequence numbers, cumulative acks and
  /// timeout-driven retransmission.
  bool reliable{false};
  ReliableConfig reliable_config{};
  /// Install the FaultyTransport layer even when faults.none(): gives tests
  /// crash_node/restart_node/set_partition handles without any random
  /// drop/dup/delay on the fault-free path.
  bool fault_layer{false};
  /// Owner failover and node restart; see FailoverOptions.
  FailoverOptions failover{};
  /// Consistent-hash page->shard ownership; see ShardingOptions.
  ShardingOptions sharding{};
  /// Durable per-node checkpoints + write-ahead log (persist/*; see
  /// docs/PERSISTENCE.md). With persist.enabled the system owns one
  /// persist::Store per node (files dir/node<i>.ckpt and dir/node<i>.wal),
  /// hands it to the node's CausalRecovery, and restart_node() restores
  /// the node's owned cells from disk instead of keeping them in memory.
  /// Requires failover.enabled: without it no node holds the recovery
  /// component that appends, and restart_node cannot run to read the WAL.
  persist::PersistConfig persist{};
  /// Protocol event tracing; see TraceOptions.
  TraceOptions trace{};
  /// Anomaly-triggered flight recorder; see FlightOptions.
  FlightOptions flight{};
  /// Online streaming causal checking; see OnlineCheckOptions.
  OnlineCheckOptions online_check{};
  /// Deterministic simulation mode: run on a SimTransport driven by this
  /// scheduler (see sim/scheduler.hpp and docs/SIMULATION.md). Excludes
  /// use_tcp, latency models, random faults, fault_layer and reliable —
  /// the simulated substrate is reliable FIFO, and faults are injected as
  /// schedule events through sim_transport() instead. failover (including
  /// heartbeat, which becomes a scheduler timer) is fully supported.
  sim::SimScheduler* sim{nullptr};
};

template <typename NodeT>
class DsmSystem {
 public:
  using Config = typename NodeT::Config;

  /// Builds a system of `n` nodes. `ownership` defaults to striping pages
  /// round-robin; pass an ExplicitOwnership to pin locations. `observer`
  /// (optional) receives every read/write for history checking.
  explicit DsmSystem(std::size_t n, Config config = {},
                     SystemOptions options = {},
                     std::unique_ptr<Ownership> ownership = nullptr,
                     OpObserver* observer = nullptr)
      : stats_(n),
        ownership_(ownership != nullptr
                       ? std::move(ownership)
                       : std::make_unique<StripedOwnership>(n, page_size_of(config))) {
    CM_EXPECTS(n > 0);
    if (options.sharding.enabled) {
      CM_EXPECTS_MSG(ownership == nullptr,
                     "sharding replaces the ownership map; pass one or the "
                     "other, not both");
      auto hro = std::make_unique<HashRingOwnership>(
          n, page_size_of(config), options.sharding.virtual_nodes);
      ring_ = &hro->ring();
      ownership_ = std::move(hro);
    }
    if (options.failover.enabled) {
      // The directory wraps the static map BEFORE nodes capture their
      // Ownership reference, so every owner_of() resolution follows
      // failover reroutes automatically.
      auto dir =
          std::make_unique<FailoverDirectory>(std::move(ownership_), n, &stats_);
      failover_dir_ = dir.get();
      ownership_ = std::move(dir);
      // Succession follows hash-ring order when a ring exists
      // (deterministic rebalance along the ring segment).
      if (ring_ != nullptr) failover_dir_->attach_ring(ring_);
    }
    if (options.flight.enabled && options.flight.force_trace) {
      options.trace.enabled = true;
    }
    if (options.trace.enabled) {
      trace_ = std::make_unique<obs::TraceHub>(n, options.trace.events_per_node);
      for (NodeId i = 0; i < n; ++i) {
        stats_.node(i).set_tracer(&trace_->node(i));
      }
    }
    if (options.flight.enabled) {
      flight_ = std::make_unique<obs::FlightRecorder>(options.flight.recorder);
      flight_->attach(&stats_, trace_.get());
      for (NodeId i = 0; i < n; ++i) {
        stats_.node(i).set_flight_recorder(flight_.get());
      }
      // Chain the recent-op history ring in front of the user's observer.
      recent_ops_ =
          std::make_unique<obs::RecentOpsObserver>(*flight_, observer);
      observer = recent_ops_.get();
    }
    if (options.online_check.enabled) {
      online_ = std::make_unique<OnlineChecker>(
          n, options.online_check.checker, observer);
      if (flight_ != nullptr) online_->set_flight_recorder(flight_.get());
      observer = online_.get();
    }
    std::unique_ptr<Transport> transport;
    if (options.sim != nullptr) {
      CM_EXPECTS_MSG(!options.use_tcp, "sim mode excludes TCP");
      CM_EXPECTS_MSG(options.latency.is_zero() &&
                         options.channel_latencies.empty(),
                     "sim mode ignores latency models (order is the "
                     "scheduler's to choose)");
      CM_EXPECTS_MSG(!options.faults.any() && !options.fault_layer,
                     "sim mode: inject crash/partition via sim_transport() "
                     "schedule events, not FaultyTransport");
      CM_EXPECTS_MSG(!options.reliable,
                     "sim mode: the simulated substrate is already reliable "
                     "FIFO; the retransmitter thread would be nondeterministic");
      auto simt = std::make_unique<sim::SimTransport>(n, options.sim,
                                                      options.exercise_codec);
      sim_ = simt.get();
      transport = std::move(simt);
    } else if (options.use_tcp) {
      transport = std::make_unique<TcpTransport>(n);
    } else {
      auto inmem = std::make_unique<InMemTransport>(n, options.latency,
                                                    options.exercise_codec);
      inmem_ = inmem.get();
      transport = std::move(inmem);
    }
    CM_EXPECTS_MSG(options.channel_latencies.empty() || inmem_ != nullptr,
                   "channel_latencies require the in-memory transport");
    for (const ChannelLatencyOverride& o : options.channel_latencies) {
      inmem_->set_channel_latency(o.from, o.to, o.latency);
    }
    if (options.faults.any() || options.fault_layer) {
      auto faulty =
          std::make_unique<FaultyTransport>(std::move(transport), options.faults);
      faulty_ = faulty.get();
      transport = std::move(faulty);
    }
    // Heartbeat probes enter here — below the reliable layer, so a probe to
    // a dead peer is dropped, not retransmitted forever.
    below_reliable_ = transport.get();
    if (options.reliable) {
      auto reliable = std::make_unique<ReliableChannel>(
          std::move(transport), options.reliable_config);
      reliable_ = reliable.get();
      transport = std::move(reliable);
    }
    transport_ = std::move(transport);
    transport_->attach_stats(&stats_);
    CM_EXPECTS_MSG(!options.persist.enabled || failover_dir_ != nullptr,
                   "persistence requires failover");
    if (failover_dir_ != nullptr) {
      CM_EXPECTS_MSG(page_size_of(config) == 1,
                     "failover requires the per-location protocol "
                     "(page_size 1)");
      for (NodeId i = 0; i < n; ++i) {
        if (options.persist.enabled) {
          stores_.push_back(std::make_unique<persist::Store>(
              options.persist, i, n, &stats_.node(i)));
          // Durable nodes are preferred failover successors.
          failover_dir_->set_durable(i, true);
        }
        recovery_.push_back(
            std::make_unique<CausalRecovery>(*failover_dir_, store(i)));
      }
    }
    nodes_.reserve(n);
    for (NodeId i = 0; i < n; ++i) {
      if constexpr (std::is_same_v<NodeT, CausalNode>) {
        nodes_.push_back(std::make_unique<NodeT>(
            i, n, *ownership_, *transport_, stats_.node(i), config, observer,
            recovery(i)));
      } else {
        CM_EXPECTS_MSG(failover_dir_ == nullptr,
                       "failover requires CausalNode");
        nodes_.push_back(std::make_unique<NodeT>(i, n, *ownership_,
                                                 *transport_, stats_.node(i),
                                                 config, observer));
      }
    }
    if (flight_ != nullptr && !stores_.empty()) {
      // Persistence state rides along in every flight-recorder artifact
      // (persist.json): one summary line per store.
      flight_->set_extra_artifact("persist.json", [this] {
        std::string out = "[\n";
        for (std::size_t i = 0; i < stores_.size(); ++i) {
          out += "  " + stores_[i]->summary_json();
          out += i + 1 < stores_.size() ? ",\n" : "\n";
        }
        out += "]\n";
        return out;
      });
    }
    if (flight_ != nullptr) {
      if constexpr (requires(const NodeT& nd) { nd.vector_time(); }) {
        flight_->set_vclock_probe([this] {
          std::vector<std::vector<std::uint64_t>> out;
          out.reserve(nodes_.size());
          for (const auto& nd : nodes_) {
            nd->vector_time().to_dense(out.emplace_back());
          }
          return out;
        });
      }
    }
    transport_->start();
    if (failover_dir_ != nullptr && options.failover.heartbeat) {
      heartbeat_ = std::make_unique<HeartbeatMonitor>(
          below_reliable_, failover_dir_, options.failover.heartbeat_config,
          &stats_);
      if (options.sim != nullptr) {
        // No prober thread: each probe-and-scan round is a scheduler timer,
        // so heartbeat traffic is deterministic and schedule-controlled.
        const auto interval_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                options.failover.heartbeat_config.interval)
                .count());
        options.sim->add_timer("heartbeat",
                               options.sim->now_ns() + interval_ns, interval_ns,
                               [hb = heartbeat_.get()] { hb->tick(); });
      } else {
        heartbeat_->start();
      }
    }
  }

  ~DsmSystem() { shutdown(); }

  DsmSystem(const DsmSystem&) = delete;
  DsmSystem& operator=(const DsmSystem&) = delete;

  /// Stops message delivery. Nodes must be quiescent (no blocked operations)
  /// when this is called; application threads join first.
  void shutdown() {
    if (heartbeat_ != nullptr) heartbeat_->stop();
    // End the online-check stream first: a latched violation files with the
    // flight recorder while the transport (trace rings, counters, clocks)
    // is still alive to snapshot.
    if (online_ != nullptr) online_->finish();
    transport_->shutdown();
  }

  /// Brings a transport-crashed node back: clears the crash flag and both
  /// channel halves of every link touching it, re-admits it in the failover
  /// directory (ownership migrated away does NOT revert) and runs the
  /// node-level rejoin (state reset + clock resync from live peers).
  /// Returns the rejoin result: true when every live peer answered the
  /// resync. Requires fault_layer (or faults) and failover.enabled.
  bool restart_node(NodeId id) {
    CM_EXPECTS_MSG(faulty_ != nullptr || sim_ != nullptr,
                   "restart_node requires the fault-injection layer (or sim "
                   "mode, where SimTransport plays that role)");
    CM_EXPECTS_MSG(failover_dir_ != nullptr,
                   "restart_node requires failover.enabled");
    CM_EXPECTS(id < nodes_.size());
    // Channel state resets while the node's traffic is still severed, so no
    // in-flight message can be sequenced against half-cleared channels.
    if (reliable_ != nullptr) reliable_->reset_peer(id);
    if (sim_ != nullptr) {
      sim_->restart_node(id);
    } else {
      faulty_->restart_node(id);
    }
    failover_dir_->mark_restarted(id);
    return recovery_[id]->rejoin();
  }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] NodeT& node(NodeId i) {
    CM_EXPECTS(i < nodes_.size());
    return *nodes_[i];
  }
  [[nodiscard]] SharedMemory& memory(NodeId i) { return node(i); }
  [[nodiscard]] StatsRegistry& stats() noexcept { return stats_; }
  [[nodiscard]] const Ownership& ownership() const noexcept { return *ownership_; }
  [[nodiscard]] Transport& transport() noexcept { return *transport_; }

  /// The in-memory transport at the bottom of the stack, or nullptr when
  /// running over TCP. Tests use this to shape per-channel latencies.
  [[nodiscard]] InMemTransport* inmem_transport() noexcept { return inmem_; }

  /// The fault-injection layer, or nullptr when options.faults is inactive.
  /// Tests use this to crash nodes / partition channels mid-run.
  [[nodiscard]] FaultyTransport* faulty_transport() noexcept { return faulty_; }

  /// The reliable-delivery adapter, or nullptr when options.reliable is off.
  [[nodiscard]] ReliableChannel* reliable_channel() noexcept { return reliable_; }

  /// The simulation transport, or nullptr outside sim mode. Scenario code
  /// uses it to crash/partition nodes as deterministic schedule events.
  [[nodiscard]] sim::SimTransport* sim_transport() noexcept { return sim_; }

  /// The failover directory, or nullptr when options.failover is off. Tests
  /// use it to inspect reroutes and inject suspicions directly.
  [[nodiscard]] FailoverDirectory* failover_directory() noexcept {
    return failover_dir_;
  }

  /// The consistent-hash ring, or nullptr when options.sharding is off.
  [[nodiscard]] const HashRing* hash_ring() const noexcept { return ring_; }

  /// Node `i`'s crash tolerance, or nullptr when options.failover is off.
  [[nodiscard]] CausalRecovery* recovery(NodeId i) noexcept {
    return i < recovery_.size() ? recovery_[i].get() : nullptr;
  }

  /// Node `i`'s durable store, or nullptr when options.persist is off.
  /// Tests/benches use it to force checkpoints, inspect paths, or model a
  /// media loss (lose_disk) before restart_node.
  [[nodiscard]] persist::Store* store(NodeId i) noexcept {
    return i < stores_.size() ? stores_[i].get() : nullptr;
  }

  /// The per-node event tracers, or nullptr when options.trace is off.
  /// Drain (trace_hub()->events()) only after application threads join and
  /// the transport is shut down.
  [[nodiscard]] obs::TraceHub* trace_hub() noexcept { return trace_.get(); }

  /// The flight recorder, or nullptr when options.flight is off. Checkers
  /// call on_violation(); tests/benches call dump() / poll() / fired().
  [[nodiscard]] obs::FlightRecorder* flight_recorder() noexcept {
    return flight_.get();
  }

  /// The online streaming checker, or nullptr when options.online_check is
  /// off. Tests call finish() after application threads join (shutdown()
  /// does it too), then ok() / violation() / stats().
  [[nodiscard]] OnlineChecker* online_checker() noexcept {
    return online_.get();
  }

 private:
  template <typename C>
  static Addr page_size_of(const C& config) {
    if constexpr (requires { config.page_size; }) {
      return config.page_size;
    } else {
      return 1;
    }
  }

  StatsRegistry stats_;
  // Declared before transport_/nodes_ (and thus destroyed after them): the
  // delivery threads and nodes may record into the tracers (and trigger the
  // flight recorder) until shutdown.
  std::unique_ptr<obs::TraceHub> trace_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::unique_ptr<obs::RecentOpsObserver> recent_ops_;
  std::unique_ptr<OnlineChecker> online_;
  std::unique_ptr<Ownership> ownership_;
  std::unique_ptr<Transport> transport_;
  // Non-owning views into the transport stack (bottom to top).
  InMemTransport* inmem_{nullptr};
  sim::SimTransport* sim_{nullptr};
  FaultyTransport* faulty_{nullptr};
  ReliableChannel* reliable_{nullptr};
  Transport* below_reliable_{nullptr};
  FailoverDirectory* failover_dir_{nullptr};  // aliases ownership_ when set
  const HashRing* ring_{nullptr};             // aliases ownership_ when set
  // Declared before nodes_ (destroyed after them): nodes append to their
  // store from operations and message service until the transport stops.
  std::vector<std::unique_ptr<persist::Store>> stores_;
  std::vector<std::unique_ptr<CausalRecovery>> recovery_;
  std::vector<std::unique_ptr<NodeT>> nodes_;
  // Last member: destroyed first, so the prober never outlives the
  // transport stack it sends through.
  std::unique_ptr<HeartbeatMonitor> heartbeat_;
};

/// Waits until every replica of a DsmSystem<BroadcastNode> has applied every
/// write issued so far (quiescence). Call only when no more writes are being
/// issued concurrently.
template <typename SystemT>
void wait_broadcast_quiescent(SystemT& system) {
  std::uint64_t issued = 0;
  for (NodeId i = 0; i < system.node_count(); ++i) {
    issued += system.node(i).issued_count();
  }
  for (NodeId i = 0; i < system.node_count(); ++i) {
    system.node(i).wait_applied(issued);
  }
}

}  // namespace causalmem
