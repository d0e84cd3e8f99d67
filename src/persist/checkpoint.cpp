#include "causalmem/persist/checkpoint.hpp"

#include "causalmem/common/crc32.hpp"

namespace causalmem::persist {

bool save_checkpoint(Vfs& vfs, const std::string& path,
                     const CheckpointData& data, std::size_t n) {
  ByteWriter w;
  const auto* magic = reinterpret_cast<const std::byte*>(kCkptMagic.data());
  w.put_bytes({magic, kCkptMagic.size()});
  w.put(data.node);
  w.put(static_cast<std::uint32_t>(n));
  w.put(data.write_seq);
  data.vt.encode_dense(w);
  w.put_count(data.cells.size());
  for (const DurableCell& c : data.cells) put_cell(w, c);
  w.put(crc32(w.bytes()));
  return vfs.write_file_atomic(path, w.bytes());
}

CkptLoad load_checkpoint(Vfs& vfs, const std::string& path, NodeId expect_node,
                         std::size_t expect_n, CheckpointData& out) {
  std::vector<std::byte> data;
  if (!vfs.read_file(path, data)) return CkptLoad::kMissing;
  // Trailing CRC over the whole body: any flip, truncation or extension is
  // caught before a single field is believed.
  if (data.size() < kCkptMagic.size() + 4) return CkptLoad::kCorrupt;
  std::uint32_t crc = 0;
  std::memcpy(&crc, data.data() + data.size() - 4, 4);
  const std::span<const std::byte> body{data.data(), data.size() - 4};
  if (crc32(body) != crc) return CkptLoad::kCorrupt;
  if (!std::equal(kCkptMagic.begin(), kCkptMagic.end(),
                  reinterpret_cast<const char*>(body.data()))) {
    return CkptLoad::kCorrupt;
  }

  SafeReader r(body.subspan(kCkptMagic.size()));
  CheckpointData parsed;
  std::uint32_t n = 0;
  std::uint32_t cell_count = 0;
  if (!r.get(parsed.node) || parsed.node != expect_node || !r.get(n) ||
      n != expect_n || !r.get(parsed.write_seq) ||
      !r.get_clock(parsed.vt, expect_n) || !r.get(cell_count)) {
    return CkptLoad::kCorrupt;
  }
  parsed.cells.reserve(
      std::min<std::size_t>(cell_count, r.remaining() / 8));
  for (std::uint32_t i = 0; i < cell_count; ++i) {
    DurableCell c;
    if (!r.get_cell(c, expect_n)) return CkptLoad::kCorrupt;
    parsed.cells.push_back(std::move(c));
  }
  if (!r.exhausted()) return CkptLoad::kCorrupt;
  out = std::move(parsed);
  return CkptLoad::kOk;
}

}  // namespace causalmem::persist
