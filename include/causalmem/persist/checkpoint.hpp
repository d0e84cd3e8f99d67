// Checkpoint format (`causalmem-ckpt-v1`): one asynchronous, uncoordinated
// per-node snapshot of the owned cells + vector clock + write counter.
//
// Causal memory admits exactly this — Kulkarni, Nguyen, Tseng & Vaidya show
// that under causal consistency each node may checkpoint independently, with
// no barrier and no coordinated recovery line, because a restored node that
// is "behind" merely exposes an older-but-causally-closed view which the
// seeded recovery election then advances (see docs/PERSISTENCE.md). Atomic memory
// would need a coordinated snapshot here.
//
// Layout: 17-byte magic "causalmem-ckpt-v1" | u32 node | u32 n
//         | u64 write_seq | clock | u32 cell_count | cells
//         | u32 crc32(everything before)
//
// Written tmp+rename (Vfs::write_file_atomic): a crash mid-checkpoint
// leaves the previous checkpoint intact; a corrupt file is rejected as a
// whole (single trailing CRC — a checkpoint is all-or-nothing, unlike the
// WAL's per-record framing).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/persist/format.hpp"
#include "causalmem/persist/vfs.hpp"

namespace causalmem::persist {

struct CheckpointData {
  NodeId node{kNoNode};
  std::uint64_t write_seq{0};
  VectorClock vt;
  std::vector<DurableCell> cells;
};

enum class CkptLoad {
  kOk,
  kMissing,  ///< no file — first boot, or the disk was lost
  kCorrupt,  ///< present but failed validation — rejected, never trusted
};

/// Atomically replaces the checkpoint at `path`.
bool save_checkpoint(Vfs& vfs, const std::string& path,
                     const CheckpointData& data, std::size_t n);

/// Loads and validates. kCorrupt leaves `out` untouched: a bad checkpoint
/// contributes nothing (recovery falls back to the WAL of the previous
/// epoch, or to the peer election).
[[nodiscard]] CkptLoad load_checkpoint(Vfs& vfs, const std::string& path,
                                       NodeId expect_node, std::size_t expect_n,
                                       CheckpointData& out);

}  // namespace causalmem::persist
