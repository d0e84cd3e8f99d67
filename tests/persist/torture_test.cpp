// Crash-consistency torture for the durable store: every prefix of the WAL
// must recover cleanly (torn tails detected and cut, never trusted), every
// single-bit flip must be caught by a CRC before any field is believed, and
// a corrupt checkpoint must be rejected as a whole — no partial state, no
// abort-on-startup. Mirrors the adversarial style of
// tests/net/codec_adversarial_test.cpp, but with SafeReader semantics: disk
// bytes report failure instead of dying.
#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "causalmem/persist/checkpoint.hpp"
#include "causalmem/persist/store.hpp"
#include "causalmem/persist/vfs.hpp"
#include "causalmem/persist/wal.hpp"

namespace causalmem::persist {
namespace {

constexpr std::size_t kNodes = 3;

VectorClock vc(std::vector<std::uint64_t> comps) {
  return VectorClock(std::move(comps));
}

DurableCell cell(Addr a, Value v, std::uint64_t seq,
                 std::vector<std::uint64_t> comps) {
  return DurableCell{a, v, WriteTag{0, seq}, vc(std::move(comps))};
}

PersistConfig mem_config(Vfs* vfs) {
  PersistConfig cfg;
  cfg.enabled = true;
  cfg.dir = "torture";
  cfg.checkpoint_every = 0;  // only explicit checkpoints
  cfg.sync_every_append = true;
  cfg.vfs = vfs;
  return cfg;
}

/// A workload of appends whose per-record file boundaries are captured, so
/// prefix/flip sweeps know exactly which cut produces which valid prefix.
struct Workload {
  std::vector<WalRecord> records;
  std::vector<std::uint64_t> boundaries;  ///< file size after header, rec 1..
  std::vector<std::byte> bytes;           ///< final WAL image
  std::string wal_path;
};

Workload build_workload(MemVfs& vfs) {
  Workload w;
  Store store(mem_config(&vfs), 0, kNodes);
  w.wal_path = store.wal_path();
  const std::vector<WalRecord> recs = {
      {cell(1, 10, 1, {1, 0, 0}), 1}, {cell(2, 20, 2, {2, 0, 0}), 2},
      {cell(1, 11, 3, {3, 0, 0}), 3}, {cell(5, 50, 4, {4, 1, 0}), 4},
      {cell(2, 21, 5, {5, 1, 2}), 5}, {cell(9, 90, 6, {6, 1, 2}), 6},
  };
  for (const WalRecord& r : recs) {
    EXPECT_TRUE(store.append(r.cell, r.write_seq));
    w.records.push_back(r);
    w.boundaries.push_back(vfs.file_size(w.wal_path));
  }
  EXPECT_TRUE(vfs.read_file(w.wal_path, w.bytes));
  return w;
}

/// Records the workload would leave behind when only the first `count`
/// survive, merged newest-per-address in append order.
std::vector<DurableCell> expect_cells(const Workload& w, std::size_t count) {
  std::vector<DurableCell> out;
  for (std::size_t i = 0; i < count; ++i) {
    const DurableCell& c = w.records[i].cell;
    bool replaced = false;
    for (DurableCell& e : out) {
      if (e.addr == c.addr) {
        e = c;
        replaced = true;
        break;
      }
    }
    if (!replaced) out.push_back(c);
  }
  return out;
}

void expect_same_cells(const std::vector<DurableCell>& got,
                       const std::vector<DurableCell>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].addr, want[i].addr) << "cell " << i;
    EXPECT_EQ(got[i].value, want[i].value) << "cell " << i;
    EXPECT_EQ(got[i].tag.seq, want[i].tag.seq) << "cell " << i;
    EXPECT_EQ(got[i].stamp.compare(want[i].stamp), ClockOrder::kEqual)
        << "cell " << i;
  }
}

TEST(WalTorture, RecoverMergesNewestPerAddress) {
  MemVfs vfs;
  const Workload w = build_workload(vfs);
  Store reborn(mem_config(&vfs), 0, kNodes);
  const RecoveredState r = reborn.recover();
  EXPECT_FALSE(r.checkpoint_loaded);
  EXPECT_EQ(r.wal_records, w.records.size());
  EXPECT_EQ(r.wal_truncated_bytes, 0u);
  EXPECT_EQ(r.write_seq, 6u);
  expect_same_cells(r.cells, expect_cells(w, w.records.size()));
  // The merged clock dominates every record's stamp.
  EXPECT_EQ(r.vt.compare(vc({6, 1, 2})), ClockOrder::kEqual);
}

TEST(WalTorture, EveryPrefixRecoversCleanlyAndRepairsTheFile) {
  MemVfs base;
  const Workload w = build_workload(base);
  const std::uint64_t header_size = wal_header(0, kNodes).size();

  for (std::size_t cut = 0; cut <= w.bytes.size(); ++cut) {
    MemVfs vfs;
    ASSERT_TRUE(vfs.write_file_atomic(
        w.wal_path, std::span<const std::byte>{w.bytes.data(), cut}));
    Store reborn(mem_config(&vfs), 0, kNodes);
    const RecoveredState r = reborn.recover();

    // The survivable prefix is exactly the records whose frames end at or
    // before the cut; everything past the last whole record is a torn tail.
    std::size_t survivors = 0;
    std::uint64_t valid = header_size;
    while (survivors < w.boundaries.size() &&
           w.boundaries[survivors] <= cut) {
      valid = w.boundaries[survivors];
      ++survivors;
    }
    if (cut < header_size) {
      // Header itself torn: the whole file is untrusted and removed.
      EXPECT_EQ(r.wal_records, 0u) << "cut " << cut;
      EXPECT_EQ(r.wal_truncated_bytes, cut) << "cut " << cut;
      EXPECT_FALSE(vfs.exists(w.wal_path)) << "cut " << cut;
    } else {
      EXPECT_EQ(r.wal_records, survivors) << "cut " << cut;
      EXPECT_EQ(r.wal_truncated_bytes, cut - valid) << "cut " << cut;
      expect_same_cells(r.cells, expect_cells(w, survivors));
      // recover() cut the torn tail in place: the file is now fully valid.
      EXPECT_EQ(vfs.file_size(w.wal_path), valid) << "cut " << cut;
    }

    // The repaired file accepts new appends, and a second recovery sees the
    // surviving prefix plus the new record — the new epoch never buries
    // garbage mid-file.
    EXPECT_TRUE(reborn.append(cell(7, 70, 100, {7, 1, 2}), 100));
    Store again(mem_config(&vfs), 0, kNodes);
    const RecoveredState r2 = again.recover();
    EXPECT_EQ(r2.wal_records, survivors + 1) << "cut " << cut;
    EXPECT_EQ(r2.wal_truncated_bytes, 0u) << "cut " << cut;
    EXPECT_EQ(r2.write_seq, 100u) << "cut " << cut;
  }
}

TEST(WalTorture, EveryBitFlipIsDetectedNeverTrusted) {
  MemVfs base;
  const Workload w = build_workload(base);

  for (std::size_t offset = 0; offset < w.bytes.size(); ++offset) {
    for (const std::uint8_t bit : {0, 7}) {
      MemVfs vfs;
      ASSERT_TRUE(vfs.write_file_atomic(w.wal_path, w.bytes));
      ASSERT_TRUE(vfs.corrupt(w.wal_path, offset, bit));
      Store reborn(mem_config(&vfs), 0, kNodes);
      const RecoveredState r = reborn.recover();
      // A flip anywhere invalidates its frame (or the header): recovery
      // keeps exactly the records before the damaged frame and reports the
      // rest as a corrupt tail. Nothing ever parses as a different value.
      EXPECT_GT(w.records.size(), r.wal_records)
          << "offset " << offset << " bit " << int(bit);
      expect_same_cells(r.cells, expect_cells(w, r.wal_records));
    }
  }
}

TEST(WalTorture, UnsyncedTailDiesWithTheProcessSyncedTailSurvives) {
  // The durability contract: the Store syncs every append, so every
  // acknowledged append survives a crash. A WAL writer that does not sync
  // (the mode the Store refuses) loses its unsynced tail — torn off by the
  // crash, cleanly absent at recovery (never garbage).
  for (const bool sync_each : {true, false}) {
    MemVfs vfs;
    if (sync_each) {
      Store store(mem_config(&vfs), 0, kNodes);
      EXPECT_TRUE(store.append(cell(1, 10, 1, {1, 0, 0}), 1));
      EXPECT_TRUE(store.append(cell(2, 20, 2, {2, 0, 0}), 2));
    } else {
      const std::string path = "torture/node0.wal";
      vfs.mkdirs("torture");
      WalWriter wal(vfs, path, 0, kNodes, /*sync_each=*/false);
      EXPECT_TRUE(wal.append(WalRecord{cell(1, 10, 1, {1, 0, 0}), 1}));
      EXPECT_TRUE(wal.append(WalRecord{cell(2, 20, 2, {2, 0, 0}), 2}));
    }
    vfs.crash();  // the process dies here
    Store reborn(mem_config(&vfs), 0, kNodes);
    const RecoveredState r = reborn.recover();
    EXPECT_EQ(r.wal_records, sync_each ? 2u : 0u);
    EXPECT_EQ(r.wal_truncated_bytes, 0u);  // a lost tail is not a torn tail
  }
}

TEST(WalTortureDeathTest, StoreRejectsAnUnsyncedWal) {
  MemVfs vfs;
  PersistConfig cfg = mem_config(&vfs);
  cfg.sync_every_append = false;
  EXPECT_DEATH({ Store store(cfg, 0, kNodes); }, "unsynced WAL");
}

TEST(WalTorture, ForeignHeaderIsRejectedWhole) {
  // A WAL written by node 1 (or for a different cluster size) must
  // contribute nothing to node 0's recovery: identity is part of the
  // CRC-guarded header.
  MemVfs vfs;
  {
    Store other(mem_config(&vfs), 1, kNodes);
    EXPECT_TRUE(other.append(cell(1, 10, 1, {0, 1, 0}), 1));
  }
  std::vector<std::byte> bytes;
  const std::string other_path = "torture/node1.wal";
  ASSERT_TRUE(vfs.read_file(other_path, bytes));
  ASSERT_TRUE(vfs.write_file_atomic("torture/node0.wal", bytes));
  Store reborn(mem_config(&vfs), 0, kNodes);
  const RecoveredState r = reborn.recover();
  EXPECT_EQ(r.wal_records, 0u);
  EXPECT_GT(r.wal_truncated_bytes, 0u);
  EXPECT_FALSE(vfs.exists("torture/node0.wal"));
}

TEST(CheckpointTorture, EveryBitFlipRejectsTheWholeFile) {
  MemVfs vfs;
  Store store(mem_config(&vfs), 0, kNodes);
  const std::vector<DurableCell> cells = {cell(1, 10, 1, {1, 0, 0}),
                                          cell(2, 20, 2, {2, 0, 0})};
  ASSERT_TRUE(store.checkpoint(cells, vc({2, 0, 0}), 2));
  std::vector<std::byte> bytes;
  ASSERT_TRUE(vfs.read_file(store.ckpt_path(), bytes));

  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    MemVfs broken;
    ASSERT_TRUE(broken.write_file_atomic(store.ckpt_path(), bytes));
    ASSERT_TRUE(broken.corrupt(store.ckpt_path(), offset, 4));
    Store reborn(mem_config(&broken), 0, kNodes);
    const RecoveredState r = reborn.recover();
    // All-or-nothing: a damaged checkpoint contributes zero cells and is
    // removed so the rejection surfaces once, not on every restart.
    EXPECT_FALSE(r.checkpoint_loaded) << "offset " << offset;
    EXPECT_TRUE(r.checkpoint_rejected) << "offset " << offset;
    EXPECT_TRUE(r.cells.empty()) << "offset " << offset;
    EXPECT_FALSE(broken.exists(store.ckpt_path())) << "offset " << offset;
  }
}

TEST(CheckpointTorture, EveryTruncationIsRejected) {
  MemVfs vfs;
  Store store(mem_config(&vfs), 0, kNodes);
  const std::vector<DurableCell> cells = {cell(3, 30, 1, {1, 0, 0})};
  ASSERT_TRUE(store.checkpoint(cells, vc({1, 0, 0}), 1));
  std::vector<std::byte> bytes;
  ASSERT_TRUE(vfs.read_file(store.ckpt_path(), bytes));
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    MemVfs broken;
    ASSERT_TRUE(broken.write_file_atomic(
        store.ckpt_path(), std::span<const std::byte>{bytes.data(), keep}));
    Store reborn(mem_config(&broken), 0, kNodes);
    const RecoveredState r = reborn.recover();
    EXPECT_FALSE(r.checkpoint_loaded) << "keep " << keep;
    EXPECT_TRUE(r.checkpoint_rejected) << "keep " << keep;
    EXPECT_TRUE(r.cells.empty()) << "keep " << keep;
  }
}

TEST(CheckpointTorture, CrashBetweenCheckpointAndWalResetIsIdempotent) {
  // Store::checkpoint() writes the checkpoint durably BEFORE resetting the
  // WAL. Model the crash in that window: both the checkpoint and the WAL it
  // covers are on disk. Replay must converge to the same state (newest per
  // address wins), not double-apply or prefer the stale snapshot.
  MemVfs vfs;
  const std::string ckpt = "torture/node0.ckpt";
  CheckpointData data;
  data.node = 0;
  data.write_seq = 2;
  data.vt = vc({2, 0, 0});
  data.cells = {cell(1, 10, 1, {1, 0, 0}), cell(2, 20, 2, {2, 0, 0})};
  ASSERT_TRUE(save_checkpoint(vfs, ckpt, data, kNodes));
  {
    WalWriter wal(vfs, "torture/node0.wal", 0, kNodes, true);
    // Records 1..2 are exactly the ones the checkpoint covers; record 3 is
    // newer than the checkpointed cell for address 1.
    ASSERT_TRUE(wal.append({cell(1, 10, 1, {1, 0, 0}), 1}));
    ASSERT_TRUE(wal.append({cell(2, 20, 2, {2, 0, 0}), 2}));
    ASSERT_TRUE(wal.append({cell(1, 11, 3, {3, 0, 0}), 3}));
  }
  Store reborn(mem_config(&vfs), 0, kNodes);
  const RecoveredState r = reborn.recover();
  EXPECT_TRUE(r.checkpoint_loaded);
  EXPECT_EQ(r.wal_records, 3u);
  EXPECT_EQ(r.write_seq, 3u);
  ASSERT_EQ(r.cells.size(), 2u);
  EXPECT_EQ(r.cells[0].addr, 1u);
  EXPECT_EQ(r.cells[0].value, 11);  // WAL record over checkpointed cell
  EXPECT_EQ(r.cells[1].addr, 2u);
  EXPECT_EQ(r.cells[1].value, 20);
}

TEST(StoreTorture, CheckpointResetsWalAndLoseDiskForgetsEverything) {
  MemVfs vfs;
  PersistConfig cfg = mem_config(&vfs);
  cfg.checkpoint_every = 2;
  Store store(cfg, 0, kNodes);
  EXPECT_TRUE(store.append(cell(1, 10, 1, {1, 0, 0}), 1));
  EXPECT_FALSE(store.checkpoint_due());
  EXPECT_TRUE(store.append(cell(2, 20, 2, {2, 0, 0}), 2));
  EXPECT_TRUE(store.checkpoint_due());
  const std::vector<DurableCell> snapshot = {cell(1, 10, 1, {1, 0, 0}),
                                             cell(2, 20, 2, {2, 0, 0})};
  ASSERT_TRUE(store.checkpoint(snapshot, vc({2, 0, 0}), 2));
  EXPECT_EQ(store.appends_since_checkpoint(), 0u);
  EXPECT_EQ(store.checkpoints_written(), 1u);
  // The WAL is back to a bare header; the checkpoint carries the state.
  {
    Store reborn(mem_config(&vfs), 0, kNodes);
    const RecoveredState r = reborn.recover();
    EXPECT_TRUE(r.checkpoint_loaded);
    EXPECT_EQ(r.wal_records, 0u);
    EXPECT_EQ(r.cells.size(), 2u);
  }
  store.lose_disk();
  Store gone(mem_config(&vfs), 0, kNodes);
  const RecoveredState r = gone.recover();
  EXPECT_FALSE(r.any());
  EXPECT_TRUE(r.cells.empty());
}

}  // namespace
}  // namespace causalmem::persist
