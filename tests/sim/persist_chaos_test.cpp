// Deterministic persistence chaos: checkpoint/crash-with-disk/recover
// schedules must be bit-identical across reruns (including every persist.*
// counter), and the disk-loss + quorum-loss scenario — original owner and
// its successor both dead, only a restarted node's durable copy left — must
// recover the acknowledged write that a persistence-free system provably
// loses. All of it runs on the scenario-owned MemVfs under the scheduler,
// so fault timing is part of the explored schedule.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "causalmem/sim/scenarios.hpp"
#include "pinned_schedule.hpp"

namespace causalmem::sim {
namespace {

struct Observation {
  ExecutionResult result;
  ScenarioOutcome outcome;
};

Observation observe(const CausalScenarioConfig& cfg, std::uint64_t seed) {
  Observation obs;
  RandomWalkStrategy walk(seed);
  obs.result = run_causal_scenario(cfg, walk, &obs.outcome);
  return obs;
}

void expect_identical(const Observation& a, const Observation& b,
                      std::uint64_t seed) {
  EXPECT_EQ(a.result.report.schedule.to_text(),
            b.result.report.schedule.to_text())
      << "seed " << seed << ": schedules diverged";
  EXPECT_EQ(a.outcome.history_text, b.outcome.history_text)
      << "seed " << seed << ": histories diverged";
  EXPECT_EQ(a.outcome.trace_text, b.outcome.trace_text)
      << "seed " << seed << ": trace streams diverged";
  EXPECT_EQ(a.outcome.counters_text, b.outcome.counters_text)
      << "seed " << seed << ": counters diverged";
  EXPECT_EQ(a.result.consistent, b.result.consistent) << "seed " << seed;
  EXPECT_EQ(a.result.violation, b.result.violation) << "seed " << seed;
}

/// Node 0 checkpoints, crashes with its disk intact, and recovers from it
/// mid-run while peers keep writing through the owner protocol.
CausalScenarioConfig disk_chaos_config() {
  CausalScenarioConfig cfg;
  cfg.nodes = 3;
  cfg.failover = true;
  cfg.persist = true;
  cfg.checkpoint_every = 2;
  cfg.config.request_timeout = std::chrono::microseconds(200);
  cfg.config.request_retries = 2;
  cfg.scripts = {
      {ScriptOp::write(0, 10), ScriptOp::write(0, 11), ScriptOp::read(1)},
      {ScriptOp::write(1, 20), ScriptOp::read(0), ScriptOp::read(2)},
      {ScriptOp::write(2, 30), ScriptOp::read(0)},
  };
  cfg.chaos = {
      ChaosEvent::checkpoint(15'000, 0),
      ChaosEvent::crash_with_disk(30'000, 0),
      ChaosEvent::recover_from_disk(250'000, 0),
  };
  return cfg;
}

TEST(PersistChaos, DiskRecoveryScheduleBitIdenticalAcrossReruns) {
  const CausalScenarioConfig cfg = disk_chaos_config();
  for (const std::uint64_t seed : {5ULL, 21ULL}) {
    const Observation a = observe(cfg, seed);
    const Observation b = observe(cfg, seed);
    EXPECT_TRUE(a.result.consistent) << a.result.violation;
    // The persist machinery must actually have run: counters_text lists
    // every counter including persist.*, so divergence there is caught by
    // the identity check; non-zero WAL traffic proves coverage.
    EXPECT_NE(a.outcome.counters_text.find("persist.wal_append"),
              std::string::npos);
    expect_identical(a, b, seed);
  }
}

TEST(PersistChaos, MediaLossScheduleBitIdenticalAcrossReruns) {
  CausalScenarioConfig cfg = disk_chaos_config();
  cfg.chaos = {
      ChaosEvent::crash_losing_disk(30'000, 0),
      ChaosEvent::recover_from_disk(250'000, 0),
  };
  for (const std::uint64_t seed : {7ULL, 13ULL}) {
    const Observation a = observe(cfg, seed);
    const Observation b = observe(cfg, seed);
    EXPECT_TRUE(a.result.consistent) << a.result.violation;
    expect_identical(a, b, seed);
  }
}

/// The disk-loss + quorum-loss scenario, sequenced by virtual time:
///   t=5'000      address 2's base owner (node 2) dies — forever.
///   t=50'000     node 0 writes 77; the request times out on the corpse,
///                suspicion migrates the page to node 0 itself, and the
///                write applies there. The value now exists ONLY at node 0.
///   t=600'000    node 0 crashes too — quorum lost, with its disk either
///                surviving (crash_with_disk) or destroyed
///                (crash_losing_disk, the regression's "before" arm).
///   t=900'000    node 0 restarts from whatever its disk still holds.
///   t=1'500'000  node 1 — which observed nothing so far — reads address 2.
CausalScenarioConfig quorum_loss_config(bool keep_disk) {
  CausalScenarioConfig cfg;
  cfg.nodes = 3;
  cfg.failover = true;
  cfg.persist = true;
  cfg.config.request_timeout = std::chrono::microseconds(200);
  cfg.config.request_retries = 2;
  cfg.scripts = {
      {ScriptOp::sleep_until(50'000), ScriptOp::write(2, 77)},
      {ScriptOp::sleep_until(1'500'000), ScriptOp::read(2)},
  };
  cfg.chaos = {
      ChaosEvent::crash_with_disk(5'000, 2),
      keep_disk ? ChaosEvent::crash_with_disk(600'000, 0)
                : ChaosEvent::crash_losing_disk(600'000, 0),
      ChaosEvent::recover_from_disk(900'000, 0),
  };
  return cfg;
}

Value final_read_of_addr2(const Observation& a) {
  Value v = -1;
  for (const Operation& op : a.outcome.history.per_process[1]) {
    if (op.kind == OpKind::kRead && op.addr == 2) v = op.value;
  }
  return v;
}

TEST(PersistChaos, DurableCopySurvivesQuorumLoss) {
  // One schedule, replayed for determinism AND for the durability claim:
  // node 1's read must observe the acknowledged 77 after the only node that
  // ever held it crashed and came back from its (synced) disk.
  const CausalScenarioConfig cfg = quorum_loss_config(/*keep_disk=*/true);
  const Observation a = observe(cfg, 3);
  const Observation b = observe(cfg, 3);
  ASSERT_TRUE(a.result.report.ok()) << a.result.report.error;
  EXPECT_TRUE(a.result.consistent) << a.result.violation;
  expect_identical(a, b, 3);
  EXPECT_EQ(final_read_of_addr2(a), 77)
      << "acknowledged write lost despite durable store:\n"
      << a.outcome.history_text;
}

TEST(PersistChaos, MediaLossLosesWhatTheSyncedDiskKeeps) {
  // The identical schedule with node 0's disk destroyed in the crash: the
  // restarted incarnation restores nothing, enters its lost-disk epoch, and
  // the election finds no copy anywhere (node 2 is dead, node 1 never read
  // the address). The write is gone — node 1 sees the initial value, which
  // is causally sound since nobody surviving ever observed 77. This pins
  // the data-loss baseline that DurableCopySurvivesQuorumLoss improves on.
  const CausalScenarioConfig cfg = quorum_loss_config(/*keep_disk=*/false);
  const Observation a = observe(cfg, 3);
  ASSERT_TRUE(a.result.report.ok()) << a.result.report.error;
  EXPECT_TRUE(a.result.consistent) << a.result.violation;
  EXPECT_EQ(final_read_of_addr2(a), kInitialValue) << a.outcome.history_text;
}

/// The virtual-clock twin of the real-time
/// DurableRecovery.LostDiskEpochReElectsInsteadOfRollingBack: node 1 reads
/// node 0's write of 9, node 0 then crashes losing its disk and restarts
/// with nothing durable. It must win an election for address 0 (which node
/// 1's journal decides in favour of 9) instead of serving the initial value.
///   t=0       P0 writes 9 to address 0, which it owns.
///   t=1 ms    P1 reads address 0.
///   t=2 ms    node 0 crashes and loses its disk.
///   t=3 ms    node 0 restarts from its empty disk.
///   t=5 ms    both read address 0 again.
CausalScenarioConfig lost_disk_epoch_config() {
  CausalScenarioConfig cfg;
  cfg.nodes = 2;
  cfg.failover = true;
  cfg.persist = true;
  cfg.config.request_timeout = std::chrono::microseconds(200);
  cfg.config.request_retries = 2;
  cfg.scripts = {
      {ScriptOp::write(0, 9), ScriptOp::sleep_until(5'000'000),
       ScriptOp::read(0)},
      {ScriptOp::sleep_until(1'000'000), ScriptOp::read(0),
       ScriptOp::sleep_until(5'000'000), ScriptOp::read(0)},
  };
  cfg.chaos = {
      ChaosEvent::crash_losing_disk(2'000'000, 0),
      ChaosEvent::recover_from_disk(3'000'000, 0),
  };
  return cfg;
}

TEST(PersistChaos, LostDiskEpochReElectsInsteadOfRollingBackInVirtualTime) {
  const CausalScenarioConfig cfg = lost_disk_epoch_config();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Observation a = observe(cfg, seed);
    ASSERT_TRUE(a.result.report.ok()) << "seed " << seed << ": "
                                      << a.result.report.error;
    EXPECT_TRUE(a.result.consistent) << "seed " << seed << ": "
                                     << a.result.violation;
    // Once node 1 has read address 0, no read anywhere may return an older
    // value than 9.
    const auto& p0 = a.outcome.history.per_process[0];
    const auto& p1 = a.outcome.history.per_process[1];
    ASSERT_EQ(p0.size(), 2u) << "seed " << seed;
    ASSERT_EQ(p1.size(), 2u) << "seed " << seed;
    EXPECT_EQ(p1[0].value, 9) << "seed " << seed << "\n"
                              << a.outcome.history_text;
    EXPECT_EQ(p1[1].value, 9) << "seed " << seed << "\n"
                              << a.outcome.history_text;
    EXPECT_EQ(p0[1].value, 9) << "seed " << seed << "\n"
                              << a.outcome.history_text;
    const StatsSnapshot& stats = a.outcome.totals;
    EXPECT_EQ(stats[Counter::kPersistRestoredCells], 0u) << "seed " << seed;
    // Nothing durable to seed the election with: the RECOVER poll ran, and
    // node 1's journal answered it with a copy.
    EXPECT_GE(stats[Counter::kFoRecoverRequest], 1u) << "seed " << seed;
    EXPECT_GE(stats[Counter::kFoRecoverCopy], 1u) << "seed " << seed;
  }
}

/// The run's persist.* and fo.* totals, one "name=value" line each, zeros
/// included, in counter order.
std::string recovery_totals(const ScenarioOutcome& out) {
  std::string text;
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const auto c = static_cast<Counter>(i);
    const std::string name = counter_name(c);
    if (name.starts_with("persist.") || name.starts_with("fo.")) {
      text += name + "=" + std::to_string(out.totals[c]) + "\n";
    }
  }
  return text;
}

// The two pins below replay WAL recovery and lost-disk re-election from
// committed schedules, so a change to either path that alters a choice, a
// verdict or a recovery counter fails here instead of merely rerunning
// identically within one build.

TEST(PersistChaos, DiskRecoveryPinReplaysWithItsCounters) {
  ScenarioOutcome out;
  run_pinned("persist_disk_recovery", disk_chaos_config(), 5, &out);
  EXPECT_EQ(recovery_totals(out),
            "fo.suspect=0\n"
            "fo.failover=0\n"
            "fo.recover_request=0\n"
            "fo.recover_reply=0\n"
            "fo.recover_copy=0\n"
            "fo.sync_request=2\n"
            "fo.sync_reply=2\n"
            "fo.request_timeout=0\n"
            "fo.unreachable=0\n"
            "persist.wal_append=4\n"
            "persist.wal_replayed=0\n"
            "persist.wal_truncated=0\n"
            "persist.checkpoint=2\n"
            "persist.ckpt_rejected=0\n"
            "persist.restored_cells=1\n");
}

TEST(PersistChaos, LostDiskEpochPinReplaysWithItsCounters) {
  ScenarioOutcome out;
  run_pinned("persist_lost_disk_epoch", lost_disk_epoch_config(), 1, &out);
  EXPECT_EQ(recovery_totals(out),
            "fo.suspect=0\n"
            "fo.failover=0\n"
            "fo.recover_request=1\n"
            "fo.recover_reply=1\n"
            "fo.recover_copy=1\n"
            "fo.sync_request=1\n"
            "fo.sync_reply=1\n"
            "fo.request_timeout=0\n"
            "fo.unreachable=0\n"
            "persist.wal_append=2\n"
            "persist.wal_replayed=0\n"
            "persist.wal_truncated=0\n"
            "persist.checkpoint=0\n"
            "persist.ckpt_rejected=0\n"
            "persist.restored_cells=0\n");
}

}  // namespace
}  // namespace causalmem::sim
