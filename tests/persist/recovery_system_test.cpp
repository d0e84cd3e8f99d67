// System-level durable recovery: a restarted node restores its owned cells
// from checkpoint + WAL (zero elections, zero full-page fetches for pages it
// covers locally), a node whose durable copy seeds the election receives no
// copy a peer holds that the seed already beats, a node that lost its disk
// serves nothing before winning an election (no initial-value rollback),
// and failover prefers durable successors. Histories stay causal through
// all of it.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "causalmem/dsm/causal/node.hpp"
#include "causalmem/dsm/failover.hpp"
#include "causalmem/dsm/system.hpp"
#include "causalmem/history/consistency.hpp"
#include "causalmem/history/recorder.hpp"
#include "causalmem/persist/vfs.hpp"

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

CausalConfig deadline_config() {
  CausalConfig cfg;
  cfg.request_timeout = std::chrono::milliseconds(80);
  cfg.request_retries = 2;
  return cfg;
}

SystemOptions persist_options(persist::Vfs* vfs) {
  SystemOptions options;
  options.fault_layer = true;
  options.failover.enabled = true;
  options.reliable = true;
  options.reliable_config.initial_rto = std::chrono::milliseconds(2);
  options.reliable_config.max_retransmits = 5;
  options.persist.enabled = true;
  options.persist.dir = "sys";
  options.persist.vfs = vfs;
  return options;
}

TEST(DurableRecovery, PersistenceWithoutFailoverIsRejectedAtConstruction) {
  // Only a failover node holds the recovery component that appends to the
  // WAL, and restart_node (the only reader of the WAL) requires failover.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  persist::MemVfs vfs;
  SystemOptions options = persist_options(&vfs);
  options.failover.enabled = false;
  EXPECT_DEATH(
      { DsmSystem<CausalNode> sys(2, deadline_config(), options); },
      "persistence requires failover");
}

TEST(DurableRecovery, RestartRestoresOwnedCellsWithZeroElections) {
  persist::MemVfs vfs;
  SystemOptions options = persist_options(&vfs);
  options.persist.checkpoint_every = 3;
  Recorder recorder(2);
  DsmSystem<CausalNode> sys(2, deadline_config(), options, nullptr, &recorder);

  // 8 owner applies over 4 distinct striped-to-node-0 addresses: two
  // checkpoints fire (after appends 3 and 6), the last 2 applies stay in
  // the WAL — recovery must merge both sources.
  for (const Value round : {0, 10}) {
    for (const Addr a : {0u, 2u, 4u, 6u}) {
      ASSERT_EQ(sys.node(0).try_write(a, static_cast<Value>(a) + round),
                OpStatus::kOk);
    }
  }
  ASSERT_NE(sys.store(0), nullptr);
  EXPECT_EQ(sys.store(0)->checkpoints_written(), 2u);

  sys.faulty_transport()->crash_node(0);
  ASSERT_TRUE(sys.restart_node(0));

  // Every owned cell is back — served straight from the restored state.
  for (const Addr a : {0u, 2u, 4u, 6u}) {
    const ReadResult r = sys.node(0).try_read(a);
    ASSERT_TRUE(r.ok()) << "addr " << a;
    EXPECT_EQ(r.value, static_cast<Value>(a) + 10) << "addr " << a;
  }
  // A peer sees the same values through the normal owner protocol.
  const ReadResult remote = sys.node(1).try_read(4);
  ASSERT_TRUE(remote.ok());
  EXPECT_EQ(remote.value, 14);

  const StatsSnapshot stats = sys.stats().total();
  EXPECT_EQ(stats[Counter::kPersistWalAppend], 8u);
  EXPECT_EQ(stats[Counter::kPersistCheckpoint], 2u);
  EXPECT_EQ(stats[Counter::kPersistWalReplayed], 2u);
  EXPECT_EQ(stats[Counter::kPersistRestoredCells], 4u);
  // The acceptance criterion: locally-covered pages cost zero elections and
  // zero full-page fetches on restart.
  EXPECT_EQ(stats[Counter::kFoRecoverRequest], 0u);
  EXPECT_EQ(stats[Counter::kPersistCkptRejected], 0u);
  EXPECT_EQ(stats[Counter::kPersistWalTruncated], 0u);

  // The restarted incarnation keeps writing with fresh tags.
  ASSERT_EQ(sys.node(0).try_write(0, 77), OpStatus::kOk);
  EXPECT_EQ(sys.node(0).try_read(0).value, 77);

  sys.shutdown();
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(DurableRecovery, BoundedCatchupElectsDurableSeedAcrossTwoCrashes) {
  persist::MemVfs vfs;
  Recorder recorder(3);
  DsmSystem<CausalNode> sys(3, deadline_config(), persist_options(&vfs),
                            nullptr, &recorder);

  // Kill the base owner of address 2. Node 1's write then times out,
  // suspicion migrates the page to node 0 (ring successor), the election
  // finds no copy anywhere, and the write applies — durably — at node 0.
  sys.faulty_transport()->crash_node(2);
  ASSERT_TRUE(eventually(
      [&] { return sys.node(1).try_write(2, 11) == OpStatus::kOk; }));
  ASSERT_TRUE(eventually([&] {
    const ReadResult r = sys.node(1).try_read(2);
    return r.ok() && r.value == 11;
  }));
  EXPECT_EQ(sys.failover_directory()->owner(2), 0u);
  EXPECT_GT(sys.stats().node(0).get(Counter::kPersistWalAppend), 0u);

  // Bring node 2 back (ownership stays migrated), then kill node 0 too: the
  // original owner AND its successor have now both crashed.
  ASSERT_TRUE(sys.restart_node(2));
  sys.faulty_transport()->crash_node(0);
  // Node 1 still holds a cached copy of address 2 from its earlier round
  // trips; drop it so the read below genuinely misses and drives the
  // failover + election instead of being answered from cache. The recovery
  // journal is untouched by a discard — the bound still comes from it.
  ASSERT_TRUE(sys.node(1).discard(2));

  // Node 1's read times out, the page migrates to node 1, and its election
  // is seeded: node 1's own observation of 11 (from its write round trip)
  // bounds the poll, the only live peer (node 2) holds nothing fresher, and
  // the durable seed wins. The write survives both crashes without any
  // full-copy transfer.
  ReadResult final_read;
  ASSERT_TRUE(eventually([&] {
    final_read = sys.node(1).try_read(2);
    return final_read.ok() && final_read.value == 11;
  }));
  EXPECT_EQ(sys.failover_directory()->owner(2), 1u);

  const StatsSnapshot stats = sys.stats().total();
  EXPECT_GE(stats[Counter::kFoRecoverRequest], 1u);
  EXPECT_GE(stats[Counter::kFoRecoverReply], 1u);
  // No peer ever held a copy beating the durable bound: every RECOVER reply
  // was payload-free.
  EXPECT_EQ(stats[Counter::kFoRecoverCopy], 0u);

  sys.shutdown();
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(DurableRecovery, LostDiskEpochReElectsInsteadOfRollingBack) {
  persist::MemVfs vfs;
  Recorder recorder(2);
  DsmSystem<CausalNode> sys(2, deadline_config(), persist_options(&vfs),
                            nullptr, &recorder);

  ASSERT_EQ(sys.node(0).try_write(0, 9), OpStatus::kOk);
  // Node 1 reads 9 — it may never observe an older value for address 0
  // again, whatever happens to node 0.
  ASSERT_TRUE(eventually([&] {
    const ReadResult r = sys.node(1).try_read(0);
    return r.ok() && r.value == 9;
  }));

  // Crash node 0 AND lose its disk. The restarted incarnation finds nothing
  // durable: it must not serve its base-owned pages from conjured initial
  // cells (that would roll address 0 back to 0 for node 1) but first win an
  // election — which node 1's observation journal decides in favour of 9.
  sys.faulty_transport()->crash_node(0);
  sys.store(0)->lose_disk();
  ASSERT_TRUE(sys.restart_node(0));

  ReadResult after;
  ASSERT_TRUE(eventually([&] {
    after = sys.node(1).try_read(0);
    return after.ok();
  }));
  EXPECT_EQ(after.value, 9);
  EXPECT_EQ(sys.node(0).try_read(0).value, 9);

  const StatsSnapshot stats = sys.stats().total();
  EXPECT_EQ(stats[Counter::kPersistRestoredCells], 0u);
  // Nothing durable to seed the election with: the unbounded RECOVER poll
  // ran, and node 1's journal answered it with a copy.
  EXPECT_GE(stats[Counter::kFoRecoverRequest], 1u);
  EXPECT_GE(stats[Counter::kFoRecoverCopy], 1u);

  sys.shutdown();
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(DurableRecovery, SelfServedReadsLeaveNoCopyOfAnOwnedPage) {
  // A node that lost its disk reads each of its own pages through a READ to
  // itself, which first wins the page's election. The R_REPLY returns the
  // elected value but caches nothing: the page is owned, so later reads go
  // to the owned cell, and a copy would only lengthen every later sweep.
  persist::MemVfs vfs;
  Recorder recorder(2);
  DsmSystem<CausalNode> sys(2, deadline_config(), persist_options(&vfs),
                            nullptr, &recorder);
  const std::vector<Addr> owned = {0, 2, 4};
  for (const Addr a : owned) {
    ASSERT_EQ(sys.node(0).try_write(a, static_cast<Value>(a) + 10),
              OpStatus::kOk);
    // Node 1's journal keeps the value, so the election can restore it.
    ASSERT_TRUE(sys.node(1).try_read(a).ok());
  }

  sys.faulty_transport()->crash_node(0);
  sys.store(0)->lose_disk();
  ASSERT_TRUE(sys.restart_node(0));
  for (const Addr a : owned) {
    const ReadResult r = sys.node(0).try_read(a);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value, static_cast<Value>(a) + 10);
    EXPECT_FALSE(sys.node(0).is_cached(a)) << "address " << a;
  }
  EXPECT_EQ(sys.node(0).cached_page_count(), 0u);
  EXPECT_EQ(sys.stats().node_snapshot(0)[Counter::kMsgReadRequest],
            owned.size());

  sys.shutdown();
  const ConsistencyReport cons = check_consistency(recorder.history());
  EXPECT_TRUE(cons.ok()) << cons.reason;
}

TEST(DurableFailover, SuspectPrefersDurableSuccessor) {
  // A durable candidate two steps down the ring beats the volatile direct
  // successor: its checkpoint + WAL survive a later crash of the successor
  // itself.
  FailoverDirectory dir(std::make_unique<StripedOwnership>(4), 4, nullptr);
  dir.set_durable(2, true);
  EXPECT_TRUE(dir.suspect(0, kNoNode));
  EXPECT_EQ(dir.owner(0), 2u);

  // No durable node anywhere: the legacy next-live rule stands, so
  // persistence-free deployments see identical failover decisions.
  FailoverDirectory plain(std::make_unique<StripedOwnership>(4), 4, nullptr);
  EXPECT_TRUE(plain.suspect(0, kNoNode));
  EXPECT_EQ(plain.owner(0), 1u);

  // A durable-but-down node is never chosen; the scan falls back to the
  // next live volatile node.
  FailoverDirectory mixed(std::make_unique<StripedOwnership>(4), 4, nullptr);
  mixed.set_durable(1, true);
  ASSERT_TRUE(mixed.suspect(1, kNoNode));
  EXPECT_TRUE(mixed.suspect(0, kNoNode));
  EXPECT_EQ(mixed.owner(0), 2u);
}

TEST(DurableRecovery, FlightArtifactCarriesPersistSummary) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "causalmem_persist_flight";
  std::filesystem::remove_all(dir);
  persist::MemVfs vfs;
  SystemOptions options = persist_options(&vfs);
  options.flight.enabled = true;
  options.flight.recorder.artifact_dir = dir.string();
  options.flight.recorder.run_label = "persist_test";
  std::string artifact;
  {
    DsmSystem<CausalNode> sys(2, deadline_config(), options);
    ASSERT_EQ(sys.node(0).try_write(0, 5), OpStatus::kOk);
    ASSERT_TRUE(sys.flight_recorder()->dump("test"));
    artifact = sys.flight_recorder()->artifact_path();
  }
  ASSERT_FALSE(artifact.empty());
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(artifact) / "persist.json"));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace causalmem
