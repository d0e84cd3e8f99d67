// Shared on-disk vocabulary of the persist layer: magic strings, the
// durable cell record, and a non-aborting byte reader.
//
// The protocol codec (common/codec.hpp) treats malformed input as a
// contract violation and aborts — correct for frames produced by our own
// ByteWriter and guarded by the transport. Disk bytes get NO such trust:
// after a crash the tail can be torn, and media can hand back garbage.
// SafeReader therefore mirrors ByteReader but reports failure instead of
// aborting, so the WAL/checkpoint loaders can reject a bad record and fall
// back (truncate the tail, discard the checkpoint) — detection, never
// silent acceptance, never a crash on startup.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "causalmem/common/codec.hpp"
#include "causalmem/common/types.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem::persist {

/// Version-bearing magic strings. A format change bumps the suffix; a
/// reader seeing an unknown magic rejects the file loudly.
inline constexpr std::string_view kWalMagic = "causalmem-wal-v1";
inline constexpr std::string_view kCkptMagic = "causalmem-ckpt-v1";

/// One durable memory cell: what a checkpoint stores per address and what a
/// WAL record carries per owner apply.
struct DurableCell {
  Addr addr{0};
  Value value{kInitialValue};
  WriteTag tag{};
  VectorClock stamp;
};

/// Bounds-checked reader for untrusted disk bytes. Every accessor returns
/// false (and poisons the reader) on under-run instead of aborting.
class SafeReader {
 public:
  explicit SafeReader(std::span<const std::byte> bytes) noexcept
      : bytes_(bytes) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_enum_v<T>
  [[nodiscard]] bool get(T& out) noexcept {
    if (!ok_ || bytes_.size() - pos_ < sizeof(T)) {
      ok_ = false;
      return false;
    }
    std::memcpy(&out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  /// Reads a u32 count + that many u64 components. `expect_n` guards the
  /// count (a persisted clock always has the system's node count).
  [[nodiscard]] bool get_clock(VectorClock& out, std::size_t expect_n) {
    std::uint32_t n = 0;
    if (!get(n) || n != expect_n || remaining() / sizeof(std::uint64_t) < n) {
      ok_ = false;
      return false;
    }
    std::vector<std::uint64_t> comps;
    comps.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t c = 0;
      (void)get(c);
      comps.push_back(c);
    }
    out = VectorClock(comps);
    return ok_;
  }

  [[nodiscard]] bool get_cell(DurableCell& out, std::size_t expect_n) {
    return get(out.addr) && get(out.value) && get(out.tag.writer) &&
           get(out.tag.seq) && get_clock(out.stamp, expect_n);
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] bool exhausted() const noexcept {
    return pos_ == bytes_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_{0};
  bool ok_{true};
};

/// Writer-side cell layout (the trusted inverse of SafeReader::get_cell).
inline void put_cell(ByteWriter& w, const DurableCell& c) {
  w.put(c.addr);
  w.put(c.value);
  w.put(c.tag.writer);
  w.put(c.tag.seq);
  c.stamp.encode_dense(w);
}

}  // namespace causalmem::persist
