#include "causalmem/persist/store.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "causalmem/common/expect.hpp"

namespace causalmem::persist {

namespace {

std::string node_path(const std::string& dir, NodeId node, const char* ext) {
  std::ostringstream oss;
  oss << dir << "/node" << node << ext;
  return oss.str();
}

}  // namespace

Store::Store(const PersistConfig& cfg, NodeId node, std::size_t n,
             NodeStats* stats)
    : cfg_(cfg),
      node_(node),
      n_(n),
      stats_(stats),
      vfs_(cfg.vfs != nullptr ? cfg.vfs : &default_vfs()),
      ckpt_path_(node_path(cfg.dir, node, ".ckpt")),
      wal_path_(node_path(cfg.dir, node, ".wal")),
      wal_(*vfs_, wal_path_, node, n, /*sync_each=*/true) {
  CM_EXPECTS_MSG(cfg_.sync_every_append,
                 "an unsynced WAL loses acknowledged writes in a crash");
  vfs_->mkdirs(cfg_.dir);
}

RecoveredState Store::recover() {
  RecoveredState out;
  out.vt = VectorClock(n_);

  CheckpointData ckpt;
  switch (load_checkpoint(*vfs_, ckpt_path_, node_, n_, ckpt)) {
    case CkptLoad::kOk:
      out.checkpoint_loaded = true;
      out.write_seq = ckpt.write_seq;
      out.vt.update(ckpt.vt);
      break;
    case CkptLoad::kMissing:
      break;
    case CkptLoad::kCorrupt:
      // Rejected as a whole: a checkpoint either validates or contributes
      // nothing. The stale file is removed so the rejection is visible once,
      // not on every restart.
      out.checkpoint_rejected = true;
      bump(Counter::kPersistCkptRejected);
      vfs_->remove(ckpt_path_);
      break;
  }

  WalReplay replay = replay_wal(*vfs_, wal_path_, node_, n_);
  out.wal_records = replay.records.size();
  out.wal_truncated_bytes = replay.truncated_bytes;
  replayed_records_ = replay.records.size();
  if (replay.file_present && !replay.header_valid) {
    // Header mismatch — including a file cut shorter than the header, even
    // to zero bytes: the whole file is untrusted. Remove it; the writer lays
    // down a fresh header on the next append.
    if (replay.truncated_bytes > 0) bump(Counter::kPersistWalTruncated);
    vfs_->remove(wal_path_);
  } else if (replay.truncated_bytes > 0) {
    // Cut the torn tail so the new epoch appends after the last valid
    // record instead of burying garbage mid-file.
    bump(Counter::kPersistWalTruncated);
    vfs_->truncate(wal_path_, replay.valid_bytes);
  }

  // Merge: checkpoint cells first, then WAL records in apply order — the
  // newest record per address wins, which is exactly the owner's final
  // in-memory state for that address.
  std::unordered_map<Addr, std::size_t> index;
  index.reserve(ckpt.cells.size() + replay.records.size());
  out.cells.reserve(ckpt.cells.size() + replay.records.size());
  for (DurableCell& c : ckpt.cells) {
    index.emplace(c.addr, out.cells.size());
    out.cells.push_back(std::move(c));
  }
  for (WalRecord& rec : replay.records) {
    out.write_seq = std::max(out.write_seq, rec.write_seq);
    out.vt.update(rec.cell.stamp);
    auto [it, fresh] = index.emplace(rec.cell.addr, out.cells.size());
    if (fresh) {
      out.cells.push_back(std::move(rec.cell));
    } else {
      out.cells[it->second] = std::move(rec.cell);
    }
  }

  bump(Counter::kPersistWalReplayed, out.wal_records);
  bump(Counter::kPersistRestoredCells, out.cells.size());
  return out;
}

bool Store::append(const DurableCell& cell, std::uint64_t write_seq) {
  if (!wal_.append(WalRecord{cell, write_seq})) return false;
  ++appends_since_ckpt_;
  bump(Counter::kPersistWalAppend);
  return true;
}

bool Store::checkpoint(std::span<const DurableCell> cells,
                       const VectorClock& vt, std::uint64_t write_seq) {
  CheckpointData data;
  data.node = node_;
  data.write_seq = write_seq;
  data.vt = vt;
  data.cells.assign(cells.begin(), cells.end());
  if (!save_checkpoint(*vfs_, ckpt_path_, data, n_)) return false;
  // Only after the checkpoint is durably in place may the WAL records it
  // covers be dropped. A crash between the two leaves a checkpoint plus a
  // WAL of already-covered records — replay is idempotent (newest wins).
  if (!wal_.reset()) return false;
  appends_since_ckpt_ = 0;
  ++ckpts_;
  bump(Counter::kPersistCheckpoint);
  return true;
}

void Store::lose_disk() {
  vfs_->remove(ckpt_path_);
  vfs_->remove(wal_path_);
  appends_since_ckpt_ = 0;
}

std::string Store::summary_json() const {
  std::ostringstream oss;
  oss << "{\"node\":" << node_ << ",\"ckpt\":\"" << ckpt_path_
      << "\",\"wal\":\"" << wal_path_
      << "\",\"checkpoints\":" << ckpts_
      << ",\"appends_since_checkpoint\":" << appends_since_ckpt_
      << ",\"wal_bytes\":" << wal_.appended_bytes()
      << ",\"replayed_records\":" << replayed_records_ << "}";
  return oss.str();
}

}  // namespace causalmem::persist
