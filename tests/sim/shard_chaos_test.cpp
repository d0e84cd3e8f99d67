// Shard-migration chaos regressions, pinned as committed replayable
// schedules. Each scenario exercises one failure mode of the copyset
// machinery under hash-ring ownership:
//
//   owner_crash_mid_batch    — the owner shard of the hot page dies while
//                              invalidation batches are queued/in flight;
//                              its ring successor takes over and clients
//                              re-route.
//   subscriber_crash_pre_ack — a subscriber joins a copyset, then dies
//                              while notices are still queued for it (they
//                              are advisory and never acknowledged); the
//                              owner's pending queue must not wedge
//                              progress, and the restarted incarnation
//                              resubscribes from a clean slate.
//   partition_across_shard   — a client is partitioned from its page's
//                              owner shard; timeouts migrate the page along
//                              the ring (the successor's RECOVER election
//                              runs inside the schedule), and the healed
//                              partition must leave every history causally
//                              clean.
//
// The schedules under tests/sim/schedules/ were produced by this file
// itself (see pinned_schedule.hpp for replay and re-recording).
#include <gtest/gtest.h>

#include "causalmem/dsm/sharding.hpp"
#include "causalmem/sim/scenarios.hpp"
#include "pinned_schedule.hpp"

namespace causalmem::sim {
namespace {

/// Shared scaffolding for all three scenarios: 4 nodes, hash-ring
/// ownership, copysets + push invalidation with a tiny batch cap (so
/// standalone INV_BATCH frames actually fire mid-scenario), bounded
/// requests + failover so crash chaos re-routes instead of blocking.
CausalScenarioConfig shard_chaos_base() {
  CausalScenarioConfig cfg;
  cfg.nodes = 4;
  cfg.sharding = true;
  cfg.failover = true;
  cfg.online_check = true;
  cfg.config.copysets = true;
  cfg.config.push_invalidation = true;
  cfg.config.inval_batch_max = 2;
  cfg.config.request_timeout = std::chrono::microseconds(200);
  cfg.config.request_retries = 2;
  cfg.scripts.resize(cfg.nodes);
  return cfg;
}

/// The ring the scenario will use (same parameters DsmSystem builds with),
/// so tests can aim chaos at the actual owner of an address instead of
/// guessing.
NodeId owner_of_addr(const CausalScenarioConfig& cfg, Addr x) {
  const HashRing ring(cfg.nodes, cfg.ring_vnodes);
  return ring.owner_of(x / cfg.config.page_size);
}

/// Some live node other than the ones listed (for picking writers and
/// subscribers around the scenario's victim).
NodeId other_than(const CausalScenarioConfig& cfg,
                  std::initializer_list<NodeId> excluded) {
  for (NodeId n = 0; n < cfg.nodes; ++n) {
    bool skip = false;
    for (const NodeId e : excluded) skip = skip || e == n;
    if (!skip) return n;
  }
  CM_EXPECTS_MSG(false, "no node left to pick");
  return kNoNode;
}

CausalScenarioConfig owner_crash_mid_batch() {
  CausalScenarioConfig cfg = shard_chaos_base();
  const Addr hot = 0;
  const NodeId owner = owner_of_addr(cfg, hot);
  const NodeId w1 = other_than(cfg, {owner});
  const NodeId w2 = other_than(cfg, {owner, w1});
  const NodeId reader = other_than(cfg, {owner, w1, w2});
  // Two writers hammer the hot page so the owner's pending-invalidation
  // queues are busy when it dies; a third node subscribes first (read) so
  // there IS a copyset to invalidate. The owner crashes mid-run and comes
  // back after failover has migrated the page to its ring successor.
  cfg.scripts[reader] = {ScriptOp::read(hot), ScriptOp::sleep_until(400'000),
                         ScriptOp::read(hot), ScriptOp::read(hot + 1)};
  cfg.scripts[w1] = {ScriptOp::write(hot, 11), ScriptOp::write(hot + 1, 12),
                     ScriptOp::write(hot, 13), ScriptOp::read(hot + 1)};
  cfg.scripts[w2] = {ScriptOp::read(hot), ScriptOp::write(hot, 21),
                     ScriptOp::write(hot + 1, 22), ScriptOp::read(hot)};
  cfg.chaos = {
      ChaosEvent::crash(30'000, owner),
      ChaosEvent::restart(300'000, owner),
  };
  return cfg;
}

CausalScenarioConfig subscriber_crash_pre_ack() {
  CausalScenarioConfig cfg = shard_chaos_base();
  const Addr hot = 0;
  const NodeId owner = owner_of_addr(cfg, hot);
  const NodeId sub = other_than(cfg, {owner});
  const NodeId writer = other_than(cfg, {owner, sub});
  // The subscriber fetches the page (joining the copyset), then dies
  // without ever sending another frame — every notice queued for it is
  // stranded. The writer keeps writing through the crash window;
  // the batch cap forces INV_BATCH sends into the corpse. After restart the
  // subscriber reads again: a fresh fetch, a fresh subscription.
  cfg.scripts[sub] = {ScriptOp::read(hot), ScriptOp::sleep_until(500'000),
                      ScriptOp::read(hot)};
  cfg.scripts[writer] = {
      ScriptOp::write(hot, 31),  ScriptOp::sleep_until(60'000),
      ScriptOp::write(hot, 32),  ScriptOp::write(hot, 33),
      ScriptOp::write(hot, 34),  ScriptOp::read(hot),
  };
  cfg.chaos = {
      ChaosEvent::crash(40'000, sub),
      ChaosEvent::restart(350'000, sub),
  };
  return cfg;
}

CausalScenarioConfig partition_across_shard() {
  CausalScenarioConfig cfg = shard_chaos_base();
  const Addr hot = 0;
  const NodeId owner = owner_of_addr(cfg, hot);
  const NodeId client = other_than(cfg, {owner});
  const NodeId witness = other_than(cfg, {owner, client});
  // The client loses both directions to its page's owner shard: its write
  // times out, suspicion migrates the page along the ring, and the retry
  // lands at the successor. After the heal, the original owner is back in
  // the mesh (ownership does NOT revert) and everyone's reads must agree
  // causally with the migrated writes.
  cfg.scripts[client] = {
      ScriptOp::read(hot),
      ScriptOp::sleep_until(50'000),
      ScriptOp::write(hot, 41),
      ScriptOp::sleep_until(600'000),
      ScriptOp::write(hot, 42),
      ScriptOp::read(hot),
  };
  cfg.scripts[witness] = {ScriptOp::sleep_until(700'000),
                          ScriptOp::read(hot)};
  cfg.chaos = {
      ChaosEvent::partition(20'000, client, owner),
      ChaosEvent::partition(20'000, owner, client),
      ChaosEvent::heal(500'000, client, owner),
      ChaosEvent::heal(500'000, owner, client),
  };
  return cfg;
}

TEST(ShardChaos, OwnerCrashMidInvalidationBatchReplaysClean) {
  run_pinned("owner_crash_mid_batch", owner_crash_mid_batch(), 101);
}

TEST(ShardChaos, SubscriberCrashBeforeAckReplaysClean) {
  run_pinned("subscriber_crash_pre_ack", subscriber_crash_pre_ack(), 102);
}

TEST(ShardChaos, PartitionThenHealAcrossShardBoundaryReplaysClean) {
  run_pinned("partition_across_shard", partition_across_shard(), 103);
}

}  // namespace
}  // namespace causalmem::sim
