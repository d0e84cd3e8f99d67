// Canned model-checking scenarios: small scripted workloads packaged as
// explorer RunFns. Each run builds a fresh SimScheduler + DsmSystem +
// Recorder, executes the per-process scripts as cooperative tasks (one
// scheduler choice point per operation), checks the recorded history with
// check_consistency(), and reports the verdict.
//
// The two bundled small-scope configs are the harness's ground truth:
//   small_scope_causal()          — the Fig. 4 owner protocol on the classic
//                                   2-node cross-write probe; every schedule
//                                   must be checker-clean.
//   small_scope_broadcast(false)  — broadcast WITHOUT vector-clock delivery
//                                   gating; exhaustive DFS must find the
//                                   3-node causal-transitivity violation
//                                   (the explorer's known-bad self-test).
//
// Crash/partition/restart faults are ChaosEvents: a dedicated "chaos" task
// parks until each event's virtual due time and then acts on the
// SimTransport / DsmSystem, so fault timing is part of the explored
// schedule, not wall-clock accident.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/common/types.hpp"
#include "causalmem/dsm/broadcast/node.hpp"
#include "causalmem/dsm/causal/config.hpp"
#include "causalmem/history/history.hpp"
#include "causalmem/sim/explorer.hpp"
#include "causalmem/sim/scheduler.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem::sim {

/// One scripted operation of a scenario process.
struct ScriptOp {
  enum class Kind : std::uint8_t { kRead, kWrite, kSleep };
  Kind kind{Kind::kRead};
  Addr addr{0};
  Value value{0};  ///< written value, or virtual-ns delay for kSleep

  [[nodiscard]] static ScriptOp read(Addr x) {
    return ScriptOp{Kind::kRead, x, 0};
  }
  [[nodiscard]] static ScriptOp write(Addr x, Value v) {
    return ScriptOp{Kind::kWrite, x, v};
  }
  /// Parks until `delay_ns` of virtual time passed since the run started
  /// (absolute, like ChaosEvent::after_ns — NOT relative to the previous
  /// op), so scripts can be sequenced against chaos events exactly.
  [[nodiscard]] static ScriptOp sleep_until(std::uint64_t after_ns) {
    return ScriptOp{Kind::kSleep, 0, static_cast<Value>(after_ns)};
  }
};

/// One fault, scheduled at a virtual-time offset from the run's start. The
/// chaos task executes events in order; a restart clears the target's
/// crashed flag only after the node-level rejoin completed, so the node's
/// workload resumes against recovered state.
struct ChaosEvent {
  enum class Kind : std::uint8_t {
    kCrash,
    kRestart,
    kPartition,
    kHeal,
    // Durable-persistence chaos (require CausalScenarioConfig::persist).
    kCheckpoint,       ///< force an async checkpoint of the node's cells now
    kCrashWithDisk,    ///< crash; synced bytes survive, unsynced tail is torn
    kCrashLosingDisk,  ///< crash AND media loss: both files vanish
    kRecoverFromDisk,  ///< restart: rejoin restores from checkpoint + WAL
  };
  Kind kind{Kind::kCrash};
  std::uint64_t after_ns{0};  ///< virtual delay from run start
  NodeId node{0};             ///< crash / restart target
  NodeId from{0};             ///< partition / heal edge (directed)
  NodeId to{0};

  [[nodiscard]] static ChaosEvent crash(std::uint64_t after_ns, NodeId node) {
    return ChaosEvent{Kind::kCrash, after_ns, node, 0, 0};
  }
  [[nodiscard]] static ChaosEvent restart(std::uint64_t after_ns,
                                          NodeId node) {
    return ChaosEvent{Kind::kRestart, after_ns, node, 0, 0};
  }
  [[nodiscard]] static ChaosEvent partition(std::uint64_t after_ns,
                                            NodeId from, NodeId to) {
    return ChaosEvent{Kind::kPartition, after_ns, 0, from, to};
  }
  [[nodiscard]] static ChaosEvent heal(std::uint64_t after_ns, NodeId from,
                                       NodeId to) {
    return ChaosEvent{Kind::kHeal, after_ns, 0, from, to};
  }
  [[nodiscard]] static ChaosEvent checkpoint(std::uint64_t after_ns,
                                             NodeId node) {
    return ChaosEvent{Kind::kCheckpoint, after_ns, node, 0, 0};
  }
  [[nodiscard]] static ChaosEvent crash_with_disk(std::uint64_t after_ns,
                                                  NodeId node) {
    return ChaosEvent{Kind::kCrashWithDisk, after_ns, node, 0, 0};
  }
  [[nodiscard]] static ChaosEvent crash_losing_disk(std::uint64_t after_ns,
                                                    NodeId node) {
    return ChaosEvent{Kind::kCrashLosingDisk, after_ns, node, 0, 0};
  }
  [[nodiscard]] static ChaosEvent recover_from_disk(std::uint64_t after_ns,
                                                    NodeId node) {
    return ChaosEvent{Kind::kRecoverFromDisk, after_ns, node, 0, 0};
  }
};

/// Owner-protocol scenario. scripts[i] runs as node i's application task;
/// missing/empty scripts mean the node only serves requests. Chaos configs
/// need config.request_timeout > 0 and failover=true, or a crashed owner
/// blocks its clients forever (which the scheduler then reports as the
/// deadlock it is).
struct CausalScenarioConfig {
  std::size_t nodes{2};
  CausalConfig config{};
  bool failover{false};
  bool heartbeat{false};
  std::chrono::microseconds heartbeat_interval{2000};
  std::chrono::microseconds heartbeat_suspect_after{20000};
  std::vector<std::vector<ScriptOp>> scripts;
  std::vector<ChaosEvent> chaos;
  /// Durable persistence over one scenario-owned MemVfs: checkpoints + WAL
  /// survive crash/restart events within the run (and only within it — the
  /// vfs dies with the scenario), deterministically under the scheduler.
  /// Required by the kCheckpoint/kCrashWithDisk/kCrashLosingDisk/
  /// kRecoverFromDisk chaos kinds; implies failover for the restart path.
  bool persist{false};
  /// Checkpoint every N WAL appends (0 = only explicit kCheckpoint events).
  std::uint32_t checkpoint_every{0};
  /// Consistent-hash sharded ownership (docs/SHARDING.md) instead of the
  /// striped default; pairs with the CausalConfig copyset/push-invalidation
  /// flags for the scale scenarios.
  bool sharding{false};
  std::size_t ring_vnodes{8};
  SimOptions sim{};
  bool trace{true};
  /// When non-empty, arm a FlightRecorder with this artifact base directory:
  /// an execution whose history fails the consistency checker dumps the full
  /// observability state (correlated trace, counters, clocks, recent ops)
  /// there before the system is torn down.
  std::string flight_dir;
  /// Also chain an OnlineChecker (streaming causal check during the run, in
  /// addition to the post-hoc check_consistency verdict); see
  /// docs/CHECKING.md.
  bool online_check{false};
};

/// Broadcast-memory scenario (no owners, no chaos: replicas are symmetric
/// and ops never block, so crash exploration adds nothing here).
struct BroadcastScenarioConfig {
  std::size_t nodes{3};
  BroadcastConfig config{};
  std::vector<std::vector<ScriptOp>> scripts;
  SimOptions sim{};
  bool trace{true};
  /// Same contract as CausalScenarioConfig::flight_dir.
  std::string flight_dir;
  /// Same contract as CausalScenarioConfig::online_check.
  bool online_check{false};
};

/// Everything one execution observed, serialized deterministically — the
/// determinism regression test asserts these byte-identical across two runs
/// of the same strategy.
struct ScenarioOutcome {
  History history;
  std::string history_text;   ///< per-process op listing
  std::string trace_text;     ///< merged trace stream, one event per line
  std::string counters_text;  ///< every counter of every node, incl. zeros
  /// Raw per-node counter snapshots plus their sum, for counter-based
  /// assertions (the scale properties bound messages-per-write with these).
  std::vector<StatsSnapshot> node_stats;
  StatsSnapshot totals;
};

/// Executes the scenario once under `strategy`. `out` (optional) receives
/// the full observation for determinism checks.
[[nodiscard]] ExecutionResult run_causal_scenario(
    const CausalScenarioConfig& cfg, Strategy& strategy,
    ScenarioOutcome* out = nullptr);
[[nodiscard]] ExecutionResult run_broadcast_scenario(
    const BroadcastScenarioConfig& cfg, Strategy& strategy,
    ScenarioOutcome* out = nullptr);

/// Packages a scenario as an explorer RunFn (config captured by value).
[[nodiscard]] RunFn make_causal_run(CausalScenarioConfig cfg);
[[nodiscard]] RunFn make_broadcast_run(BroadcastScenarioConfig cfg);

/// 2 nodes, 2 locations, 6 ops: P0: w(x0,1) r(x1) w(x1,2);
/// P1: w(x1,3) r(x0) w(x0,4). Striped ownership puts x0 on P0 and x1 on P1,
/// so the script mixes local ops with owner round trips in both directions.
[[nodiscard]] CausalScenarioConfig small_scope_causal();

/// 3 nodes probing causal transitivity: P0: w(x,1); P1: r(x) w(y,2);
/// P2: r(y) r(x). With causal_delivery=false a schedule that delivers P1's
/// update to P2 before P0's makes P2 observe r(y)=2 then r(x)=0 — the
/// violation the explorer must find. With gating on, every schedule is
/// clean. (2 nodes would NOT work: per-channel FIFO alone already yields
/// causal delivery between two processes.)
[[nodiscard]] BroadcastScenarioConfig small_scope_broadcast(
    bool causal_delivery);

}  // namespace causalmem::sim
