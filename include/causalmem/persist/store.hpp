// Per-node durable store: the facade the DSM node talks to.
//
// Write path (owner apply points, under the node's lock):
//     append(cell, write_seq)           — one CRC-framed WAL record, fsynced
//                                         before the owner's reply leaves
//     checkpoint_due() / checkpoint()   — every `checkpoint_every` appends,
//                                         atomically replace the checkpoint
//                                         and reset the WAL
//
// Recovery path (CausalRecovery::rejoin):
//     recover() — load + validate the checkpoint, replay the WAL on top of
//     it (newest record per address wins; WAL order is apply order), cut any
//     torn/corrupt tail back to the last valid byte, and hand the node a
//     single merged RecoveredState. Nothing unvalidated is ever believed:
//     a corrupt checkpoint contributes zero cells, a torn WAL contributes
//     its valid prefix only.
//
// Checkpoints are asynchronous and uncoordinated across nodes (sound under
// causal consistency — see checkpoint.hpp and docs/PERSISTENCE.md); the
// Store therefore never talks to the network and never blocks on peers.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "causalmem/persist/checkpoint.hpp"
#include "causalmem/persist/vfs.hpp"
#include "causalmem/persist/wal.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem::persist {

struct PersistConfig {
  bool enabled{false};
  /// Directory holding node<id>.ckpt / node<id>.wal.
  std::string dir{"causalmem-persist"};
  /// Checkpoint after this many WAL appends. 0 = only explicit checkpoints.
  std::uint32_t checkpoint_every{256};
  /// Must stay true: every WAL append is fsynced before it returns (the
  /// durability contract the recovery proof relies on: an acknowledged
  /// write is on disk), and Store rejects false, which would lose
  /// acknowledged writes in the crash window.
  bool sync_every_append{true};
  /// Filesystem seam; null = process-wide RealVfs. Sim and tests inject a
  /// MemVfs here.
  Vfs* vfs{nullptr};
};

/// Everything recover() could reconstruct, already merged.
struct RecoveredState {
  bool checkpoint_loaded{false};
  bool checkpoint_rejected{false};  ///< present but corrupt — discarded whole
  std::uint64_t write_seq{0};       ///< max over checkpoint and WAL records
  VectorClock vt;                   ///< checkpoint vt joined with WAL stamps
  std::vector<DurableCell> cells;   ///< newest per address (WAL over ckpt)
  std::size_t wal_records{0};
  std::uint64_t wal_truncated_bytes{0};  ///< torn tail cut (0 = clean file)

  [[nodiscard]] bool any() const noexcept {
    return checkpoint_loaded || wal_records > 0;
  }
};

class Store {
 public:
  Store(const PersistConfig& cfg, NodeId node, std::size_t n,
        NodeStats* stats = nullptr);

  /// Validates and merges whatever the disk holds; truncates a detected torn
  /// WAL tail in place so the next epoch appends after the last valid byte.
  RecoveredState recover();

  /// One durable WAL record. Returns false only on I/O failure.
  bool append(const DurableCell& cell, std::uint64_t write_seq);

  [[nodiscard]] bool checkpoint_due() const noexcept {
    return cfg_.checkpoint_every != 0 &&
           appends_since_ckpt_ >= cfg_.checkpoint_every;
  }

  /// Atomically replaces the checkpoint with `cells` + `vt` + `write_seq`,
  /// then resets the WAL (its records are now covered by the checkpoint).
  bool checkpoint(std::span<const DurableCell> cells, const VectorClock& vt,
                  std::uint64_t write_seq);

  /// Deletes both files — the "disk lost in the crash" arm of tests and of
  /// bench_recovery's election-only baseline.
  void lose_disk();

  [[nodiscard]] const std::string& wal_path() const noexcept {
    return wal_path_;
  }
  [[nodiscard]] const std::string& ckpt_path() const noexcept {
    return ckpt_path_;
  }
  [[nodiscard]] std::uint64_t appends_since_checkpoint() const noexcept {
    return appends_since_ckpt_;
  }
  [[nodiscard]] std::uint64_t checkpoints_written() const noexcept {
    return ckpts_;
  }

  /// One-line JSON blob for the flight recorder's persist.json.
  [[nodiscard]] std::string summary_json() const;

 private:
  void bump(Counter c, std::uint64_t k = 1) noexcept {
    if (stats_ != nullptr) stats_->bump(c, k);
  }

  PersistConfig cfg_;
  NodeId node_;
  std::size_t n_;
  NodeStats* stats_;
  Vfs* vfs_;
  std::string ckpt_path_;
  std::string wal_path_;
  WalWriter wal_;
  std::uint64_t appends_since_ckpt_{0};
  std::uint64_t ckpts_{0};
  std::uint64_t replayed_records_{0};  ///< from the last recover()
};

}  // namespace causalmem::persist
