// Crash tolerance for the owner protocol: request deadlines surface
// Unreachable instead of blocking forever, suspected owners' locations
// migrate to a deterministic ring successor that reconstructs state by a
// writestamp-max election, and a transport-restarted node rejoins with a
// resynced clock. Histories must stay causal through all of it.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "causalmem/apps/solver/solver.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/failover.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/obs/clock.hpp"
#include "causalmem/sim/scenarios.hpp"

namespace causalmem {
namespace {

/// Polls until `pred` holds or ~2s elapse; returns the final predicate value.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 2000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

VectorClock vc(std::vector<std::uint64_t> comps) {
  return VectorClock(std::move(comps));
}

TEST(FresherStamp, OrdersDeterministically) {
  // Strictly after wins; before/equal lose.
  EXPECT_TRUE(fresher_stamp(vc({2, 1}), vc({1, 1})));
  EXPECT_FALSE(fresher_stamp(vc({1, 1}), vc({2, 1})));
  EXPECT_FALSE(fresher_stamp(vc({1, 1}), vc({1, 1})));
  // Concurrent: larger component sum wins...
  EXPECT_TRUE(fresher_stamp(vc({3, 0}), vc({0, 2})));
  EXPECT_FALSE(fresher_stamp(vc({0, 2}), vc({3, 0})));
  // ...equal sums fall back to lexicographic order — and exactly one of the
  // two directions wins, so independent elections agree.
  const bool ab = fresher_stamp(vc({2, 0}), vc({0, 2}));
  const bool ba = fresher_stamp(vc({0, 2}), vc({2, 0}));
  EXPECT_NE(ab, ba);
}

TEST(FailoverDirectory, MigratesToRingSuccessorAndNeverReverts) {
  FailoverDirectory dir(std::make_unique<StripedOwnership>(4), 4, nullptr);
  EXPECT_EQ(dir.owner(1), 1u);

  // First suspicion migrates to the next live node in ring order.
  EXPECT_TRUE(dir.suspect(1, 0));
  EXPECT_TRUE(dir.is_down(1));
  EXPECT_EQ(dir.owner(1), 2u);
  EXPECT_EQ(dir.base_owner(1), 1u);
  // Repeat reports are idempotent.
  EXPECT_FALSE(dir.suspect(1, 3));
  EXPECT_EQ(dir.owner(1), 2u);

  // A restart re-admits the node but ownership stays migrated.
  dir.mark_restarted(1);
  EXPECT_FALSE(dir.is_down(1));
  EXPECT_EQ(dir.owner(1), 2u);

  // The successor itself failing chains the reroute: 1 -> 2 -> 3.
  EXPECT_TRUE(dir.suspect(2, kNoNode));
  EXPECT_EQ(dir.owner(1), 3u);
  EXPECT_EQ(dir.owner(2), 3u);

  const std::vector<NodeId> live = dir.live_peers(0);
  EXPECT_EQ(live, (std::vector<NodeId>{1, 3}));
}

TEST(FailoverDirectory, SuccessorSkipsDownNodes) {
  FailoverDirectory dir(std::make_unique<StripedOwnership>(4), 4, nullptr);
  ASSERT_TRUE(dir.suspect(2, kNoNode));
  // 3 is down when 1 fails: the successor scan must skip it and pick 0
  // (wrapping the ring), not park locations on a corpse.
  ASSERT_TRUE(dir.suspect(3, kNoNode));
  ASSERT_TRUE(dir.suspect(1, kNoNode));
  EXPECT_EQ(dir.owner(1), 0u);
  // With everyone else down there is no successor left.
  EXPECT_FALSE(dir.suspect(0, kNoNode));
  EXPECT_FALSE(dir.is_down(0));
}

TEST(RequestDeadline, EveryRequestReturnsUnreachableWithinDeadline) {
  // Deterministic (FakeClock) version of the acceptance scenario: one node
  // crashed, NO failover — every owner request must surface Unreachable
  // once the virtual clock passes retries+1 deadlines, never block forever.
  obs::FakeClock clock;
  obs::ScopedClockSource scoped(&clock);

  CausalConfig cfg;
  cfg.request_timeout = std::chrono::milliseconds(50);
  cfg.request_retries = 2;
  SystemOptions options;
  options.fault_layer = true;
  DsmSystem<CausalNode> sys(2, cfg, options);
  ASSERT_NE(sys.faulty_transport(), nullptr);
  sys.faulty_transport()->crash_node(0);  // owner of addr 0 (striped)

  ReadResult read_result;
  OpStatus write_status = OpStatus::kOk;
  std::jthread worker([&] {
    read_result = sys.node(1).try_read(0);
    write_status = sys.node(1).try_write(0, 42);
  });
  // Drive virtual time forward until both operations give up. Each op runs
  // 3 rounds of 50ms; 10ms virtual steps paced by real sleeps let the
  // 200us deadline poll observe every expiry.
  std::jthread advancer([&clock](const std::stop_token& st) {
    while (!st.stop_requested()) {
      clock.advance_ns(10'000'000);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  worker.join();
  advancer.request_stop();
  advancer.join();

  EXPECT_EQ(read_result.status, OpStatus::kUnreachable);
  EXPECT_FALSE(read_result.ok());
  EXPECT_EQ(write_status, OpStatus::kUnreachable);
  const NodeStats& stats = sys.stats().node(1);
  // Exactly (retries + 1) expired rounds per operation, one terminal
  // Unreachable each.
  EXPECT_EQ(stats.get(Counter::kFoRequestTimeout), 6u);
  EXPECT_EQ(stats.get(Counter::kFoUnreachable), 2u);
  // No failover directory attached: nothing migrated, nothing recovered.
  EXPECT_EQ(sys.failover_directory(), nullptr);
}

SystemOptions failover_options() {
  SystemOptions options;
  options.fault_layer = true;
  options.failover.enabled = true;
  options.reliable = true;
  // Fast give-up: requests to a crashed peer stop retransmitting quickly
  // instead of backing off for ~1s (the DSM deadline owns recovery).
  options.reliable_config.initial_rto = std::chrono::milliseconds(2);
  options.reliable_config.max_retransmits = 5;
  return options;
}

TEST(OwnerFailover, PagedSystemIsRejectedAtConstruction) {
  // Recovery elects per-location freshest copies, so failover needs the
  // per-location protocol; the rule is checked where the recovery
  // component is built.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  CausalConfig cfg;
  cfg.page_size = 2;
  EXPECT_DEATH({ DsmSystem<CausalNode> sys(2, cfg, failover_options()); },
               "page_size 1");
}

CausalConfig deadline_config() {
  CausalConfig cfg;
  // Wide enough that sanitizer slowdown cannot falsely suspect a live
  // owner (suspicion accuracy is a protocol assumption — see PROTOCOL.md),
  // short enough that crash detection keeps the chaos tests fast.
  cfg.request_timeout = std::chrono::milliseconds(80);
  cfg.request_retries = 2;
  return cfg;
}

TEST(OwnerFailover, SolverSurvivesOwnerCrashMidRun) {
  // The acceptance chaos test: the node owning A and b (a non-coordinator,
  // running no solver code) crashes between phases 2 and 3 of a 6-phase
  // run. Reads of the constants fail over to the ring successor (worker 0),
  // which reconstructs them by election from the live nodes' journals; the
  // run must still be bit-exact vs the sequential reference and the full
  // history causally consistent.
  const SolverProblem p = SolverProblem::random(4, 21);
  const auto ref = p.jacobi_reference(6);
  const SolverLayout layout(p.n);
  const NodeId storage = static_cast<NodeId>(layout.node_count());
  const std::size_t n = layout.node_count() + 1;
  Recorder recorder(n);
  SolverRun run;
  StatsSnapshot stats{};
  {
    DsmSystem<CausalNode> sys(n, deadline_config(), failover_options(),
                              layout.make_ownership_constants_at(storage),
                              &recorder);
    ASSERT_NE(sys.failover_directory(), nullptr);
    std::vector<SharedMemory*> mems;
    for (NodeId i = 0; i < layout.node_count(); ++i) {
      mems.push_back(&sys.memory(i));
    }
    SolverOptions opts;
    opts.iterations = 6;
    opts.protect_constants = false;  // cached constants must die and re-fetch
    opts.on_phase = [&sys, storage](std::size_t k) {
      if (k == 2) sys.faulty_transport()->crash_node(storage);
    };
    run = run_sync_solver(p, layout, mems, opts);
    stats = sys.stats().total();
    EXPECT_TRUE(sys.failover_directory()->is_down(storage));
    EXPECT_EQ(sys.failover_directory()->owner(layout.a(0, 0)), 0u);
  }
  ASSERT_EQ(run.x.size(), p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(run.x[i], ref[i]) << "component " << i;
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
  // The failover machinery must actually have fired.
  EXPECT_GE(stats[Counter::kFoSuspect], 1u);
  EXPECT_EQ(stats[Counter::kFoFailover], 1u);
  EXPECT_GT(stats[Counter::kFoRecoverRequest], 0u);
  EXPECT_GT(stats[Counter::kFoRequestTimeout], 0u);
}

TEST(OwnerFailover, RestartedNodeRejoinsMidRun) {
  // Crash the storage owner early, restart it mid-run: the restarted node
  // rejoins as a peer (its locations stay with the successor) with a clock
  // resynced from the live nodes, and the run stays bit-exact and causal.
  const SolverProblem p = SolverProblem::random(4, 33);
  const auto ref = p.jacobi_reference(8);
  const SolverLayout layout(p.n);
  const NodeId storage = static_cast<NodeId>(layout.node_count());
  const std::size_t n = layout.node_count() + 1;
  Recorder recorder(n);
  SolverRun run;
  bool rejoined = false;
  VectorClock storage_vt;
  {
    DsmSystem<CausalNode> sys(n, deadline_config(), failover_options(),
                              layout.make_ownership_constants_at(storage),
                              &recorder);
    std::vector<SharedMemory*> mems;
    for (NodeId i = 0; i < layout.node_count(); ++i) {
      mems.push_back(&sys.memory(i));
    }
    SolverOptions opts;
    opts.iterations = 8;
    opts.protect_constants = false;
    opts.on_phase = [&](std::size_t k) {
      if (k == 2) sys.faulty_transport()->crash_node(storage);
      if (k == 5) rejoined = sys.restart_node(storage);
    };
    run = run_sync_solver(p, layout, mems, opts);
    EXPECT_FALSE(sys.failover_directory()->is_down(storage));
    // Ownership never reverts: the successor keeps serving the constants.
    EXPECT_EQ(sys.failover_directory()->owner(layout.a(0, 0)), 0u);
    storage_vt = sys.node(storage).vector_time();
  }
  EXPECT_TRUE(rejoined);
  ASSERT_EQ(run.x.size(), p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(run.x[i], ref[i]) << "component " << i;
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
  // The rejoin resynced the restarted node's clock from live peers: it has
  // witnessed other nodes' writes again.
  std::uint64_t learned = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (i != storage) learned += storage_vt[i];
  }
  EXPECT_GT(learned, 0u);
}

TEST(OwnerFailover, RandomWorkloadStaysCausalAcrossOwnerCrash) {
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kAddrs = 6;
  Recorder recorder(kNodes);
  {
    DsmSystem<CausalNode> sys(kNodes, deadline_config(), failover_options(),
                              nullptr, &recorder);
    std::atomic<bool> crashed{false};
    std::jthread killer([&sys, &crashed] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      sys.faulty_transport()->crash_node(2);
      crashed.store(true);
    });
    std::vector<std::jthread> threads;
    for (NodeId p = 0; p < 2; ++p) {  // node 2 is the crash victim
      threads.emplace_back([&sys, &crashed, p] {
        Rng rng(4242 + p);
        SharedMemory& mem = sys.memory(p);
        for (int i = 0; i < 80; ++i) {
          // The second half of the workload runs strictly after the crash so
          // the dead owner's addresses are guaranteed to be exercised.
          while (i == 40 && !crashed.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          const Addr a = rng.next_below(kAddrs);
          if (rng.chance(0.5)) {
            mem.write(a, static_cast<Value>(rng.next() >> 8));
          } else {
            (void)mem.read(a);
          }
        }
        (void)mem.read(2);  // owned by the crashed node: forces a timeout
        mem.flush();
      });
    }
    threads.clear();
    killer.join();
    EXPECT_TRUE(sys.failover_directory()->is_down(2));
  }
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(OwnerFailover, SeededElectionWithoutPersistenceSendsNoCopy) {
  // No persistence anywhere: the successor's own journal seeds the
  // election, so the RECOVER poll carries the seed's stamp and a peer whose
  // copy does not beat it answers payload-free.
  Recorder recorder(3);
  DsmSystem<CausalNode> sys(3, deadline_config(), failover_options(), nullptr,
                            &recorder);
  // Node 2 owns address 2 and certifies node 1's write; node 0 (node 2's
  // ring successor) then reads it. Both journals now hold the same copy:
  // the write reply and the read reply carry the stamp the owner stored.
  ASSERT_EQ(sys.node(1).try_write(2, 11), OpStatus::kOk);
  const ReadResult seen = sys.node(0).try_read(2);
  ASSERT_TRUE(seen.ok());
  ASSERT_EQ(seen.value, 11);

  sys.faulty_transport()->crash_node(2);
  // Drop node 1's cached copy so its read misses, times out at the dead
  // owner, and lands at node 0 — which elects before serving it.
  ASSERT_TRUE(sys.node(1).discard(2));
  ReadResult after;
  ASSERT_TRUE(eventually([&] {
    after = sys.node(1).try_read(2);
    return after.ok();
  }));
  EXPECT_EQ(after.value, 11);
  EXPECT_EQ(sys.failover_directory()->owner(2), 0u);

  const StatsSnapshot stats = sys.stats().total();
  EXPECT_GE(stats[Counter::kFoRecoverRequest], 1u);
  EXPECT_GE(stats[Counter::kFoRecoverReply], 1u);
  // Node 1's copy only ties the seed: no reply carried a payload.
  EXPECT_EQ(stats[Counter::kFoRecoverCopy], 0u);

  sys.shutdown();
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(OwnerFailover, HeartbeatDetectsIdleCrash) {
  // No application traffic at all: only the active prober can notice the
  // crash. The survivor must then serve the dead node's locations.
  SystemOptions options = failover_options();
  options.failover.heartbeat = true;
  options.failover.heartbeat_config.interval = std::chrono::milliseconds(1);
  options.failover.heartbeat_config.suspect_after =
      std::chrono::milliseconds(20);
  DsmSystem<CausalNode> sys(3, deadline_config(), options);
  // Let a few probe rounds establish liveness, then kill node 2 silently.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  sys.faulty_transport()->crash_node(2);
  ASSERT_TRUE(eventually(
      [&] { return sys.failover_directory()->is_down(2); }));
  EXPECT_EQ(sys.failover_directory()->owner(2), 0u);  // ring: 2 -> 0
  // The migrated location is servable: an election with no journaled copy
  // anywhere yields the initial value.
  EXPECT_EQ(sys.memory(0).read(2), kInitialValue);
  EXPECT_EQ(sys.memory(1).read(2), kInitialValue);
  const StatsSnapshot stats = sys.stats().total();
  EXPECT_GT(stats[Counter::kNetHeartbeat], 0u);
  EXPECT_EQ(stats[Counter::kFoFailover], 1u);
}

TEST(OwnerFailover, HeartbeatDetectsIdleCrashInVirtualTime) {
  // The test above on the simulator's virtual clock, where its 20 ms
  // suspicion threshold cannot be crossed by a loaded host: node 2 dies
  // silently at 5 ms with no application traffic, and at 100 ms both
  // survivors read one of its locations.
  using namespace std::chrono_literals;
  sim::CausalScenarioConfig cfg;
  cfg.nodes = 3;
  cfg.config = deadline_config();
  cfg.failover = true;
  cfg.heartbeat = true;
  cfg.heartbeat_interval = 1ms;
  cfg.heartbeat_suspect_after = 20ms;
  const auto at = [](std::chrono::nanoseconds t) {
    return static_cast<std::uint64_t>(t.count());
  };
  const std::vector<sim::ScriptOp> reader = {
      sim::ScriptOp::sleep_until(at(100ms)), sim::ScriptOp::read(2)};
  cfg.scripts = {reader, reader};
  cfg.chaos = {sim::ChaosEvent::crash(at(5ms), 2)};
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    sim::RandomWalkStrategy walk(seed);
    sim::ScenarioOutcome out;
    const sim::ExecutionResult res = sim::run_causal_scenario(cfg, walk, &out);
    ASSERT_TRUE(res.report.ok()) << "seed " << seed << ": " << res.report.error;
    EXPECT_TRUE(res.consistent) << "seed " << seed << ": " << res.violation;
    EXPECT_GT(out.totals[Counter::kNetHeartbeat], 0u) << "seed " << seed;
    EXPECT_EQ(out.totals[Counter::kFoFailover], 1u) << "seed " << seed;
    // The migrated location is servable: an election with no journaled
    // copy anywhere yields the initial value.
    for (NodeId p = 0; p < 2; ++p) {
      ASSERT_EQ(out.history.per_process[p].size(), 1u)
          << "seed " << seed << " p" << p;
      const Operation& op = out.history.per_process[p][0];
      EXPECT_EQ(op.kind, OpKind::kRead) << "seed " << seed << " p" << p;
      EXPECT_EQ(op.addr, 2u) << "seed " << seed << " p" << p;
      EXPECT_EQ(op.value, kInitialValue) << "seed " << seed << " p" << p;
    }
  }
}

/// Steps the task named `first` whenever it can run, and delivers to node
/// `starved` only while nothing else can run.
class StarveDeliveriesTo final : public sim::Strategy {
 public:
  StarveDeliveriesTo(std::string_view first, NodeId starved)
      : first_(first), starved_(starved) {}

  std::size_t pick(const std::vector<sim::Choice>& choices) override {
    std::size_t other = choices.size();
    for (std::size_t i = 0; i < choices.size(); ++i) {
      const sim::Choice& c = choices[i];
      if (c.kind == sim::ChoiceKind::kStep && c.label == first_) return i;
      const bool starved =
          c.kind == sim::ChoiceKind::kDeliver && c.to == starved_;
      if (!starved && other == choices.size()) other = i;
    }
    return other == choices.size() ? 0 : other;
  }

 private:
  std::string_view first_;
  NodeId starved_;
};

TEST(OwnerFailover, LateSyncReplyToAnAbandonedRejoinIsDropped) {
  // With no request_timeout configured, rejoin() still gives each SYNC
  // round 500 ms and then abandons it. Node 2 restarts at 5 ms while node
  // 0 reads its own location 800 times at 1 ms per step, and no message
  // reaches node 2 until nothing else can run: both SYNC replies arrive
  // after their rounds expired. A late reply to an abandoned round is
  // dropped in every configuration, as with a configured deadline.
  using namespace std::chrono_literals;
  const auto at = [](std::chrono::nanoseconds t) {
    return static_cast<std::uint64_t>(t.count());
  };
  sim::CausalScenarioConfig cfg;
  cfg.nodes = 3;
  cfg.failover = true;
  cfg.sim.event_tick_ns = at(1ms);
  ASSERT_EQ(cfg.config.request_timeout.count(), 0);
  cfg.scripts = {std::vector<sim::ScriptOp>(800, sim::ScriptOp::read(0))};
  cfg.chaos = {sim::ChaosEvent::crash(at(2ms), 2),
               sim::ChaosEvent::restart(at(5ms), 2)};
  StarveDeliveriesTo strategy("chaos", 2);
  sim::ScenarioOutcome out;
  const sim::ExecutionResult res = sim::run_causal_scenario(cfg, strategy, &out);
  ASSERT_TRUE(res.report.ok()) << res.report.error;
  EXPECT_TRUE(res.consistent) << res.violation;
  EXPECT_EQ(out.history.per_process[0].size(), 800u);
  EXPECT_EQ(out.totals[Counter::kFoSyncRequest], 2u);
  EXPECT_EQ(out.totals[Counter::kFoSyncReply], 2u);
}

TEST(OwnerFailover, FaultFreeRunKeepsEveryRecoveryCounterZero) {
  // Failover enabled but nothing crashes: the machinery must be pure
  // bookkeeping — zero recovery counters, zero recovery messages — so the
  // paper's fault-free message accounting (2n+6) is untouched.
  const SolverProblem p = SolverProblem::random(4, 17);
  const auto ref = p.jacobi_reference(4);
  const SolverLayout layout(p.n);
  SystemOptions options;
  options.fault_layer = true;
  options.failover.enabled = true;
  CausalConfig cfg;
  cfg.request_timeout = std::chrono::seconds(5);  // never expires in practice
  cfg.request_retries = 2;
  StatsSnapshot stats{};
  SolverRun run;
  {
    DsmSystem<CausalNode> sys(layout.node_count(), cfg, options,
                              layout.make_ownership());
    std::vector<SharedMemory*> mems;
    for (NodeId i = 0; i < layout.node_count(); ++i) {
      mems.push_back(&sys.memory(i));
    }
    SolverOptions opts;
    opts.iterations = 4;
    run = run_sync_solver(p, layout, mems, opts);
    stats = sys.stats().total();
  }
  ASSERT_EQ(run.x.size(), p.n);
  for (std::size_t i = 0; i < p.n; ++i) {
    EXPECT_EQ(run.x[i], ref[i]) << "component " << i;
  }
  for (const Counter c :
       {Counter::kNetHeartbeat, Counter::kNetPeerUnreachable,
        Counter::kFoSuspect, Counter::kFoFailover, Counter::kFoRecoverRequest,
        Counter::kFoRecoverReply, Counter::kFoRecoverCopy,
        Counter::kFoSyncRequest, Counter::kFoSyncReply,
        Counter::kFoRequestTimeout, Counter::kFoUnreachable}) {
    EXPECT_EQ(stats[c], 0u) << counter_name(c);
  }
}

}  // namespace
}  // namespace causalmem
