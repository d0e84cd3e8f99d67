// Byte-level encoder/decoder for protocol messages. Fixed little-endian
// wire format so the in-memory and TCP transports serialize identically,
// plus LEB128 varints for fields whose typical value is small (a vector
// clock's dimension, nonzero count, index gaps and components).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "causalmem/common/expect.hpp"

namespace causalmem {

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  /// Writes into `reuse` (cleared first), so a caller on the hot path can
  /// recycle one buffer's capacity across encodes (see common/arena.hpp).
  explicit ByteWriter(std::vector<std::byte> reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  template <typename T>
    requires std::is_integral_v<T> || std::is_floating_point_v<T> ||
             std::is_enum_v<T>
  void put(T v) {
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  /// Writes `v` as an unsigned LEB128 varint: seven bits per byte, low
  /// group first, the high bit set on every byte but the last.
  void put_varint(std::uint64_t v) {
    // Room for the longest varint, ten bytes, in one step: a new writer
    // would otherwise reallocate at 1, 2, 4 and 8 bytes.
    if (buf_.capacity() - buf_.size() < 10) {
      buf_.reserve(std::max(2 * buf_.capacity(), buf_.size() + 10));
    }
    for (; v >= 0x80; v >>= 7) buf_.push_back(static_cast<std::byte>(v | 0x80));
    buf_.push_back(static_cast<std::byte>(v));
  }

  void put_bytes(std::span<const std::byte> bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }

  /// Writes an element/byte count as u32. Counts live in memory as size_t;
  /// anything beyond the u32 wire field would previously be *silently
  /// truncated* by the cast — now it is a contract violation.
  void put_count(std::size_t n) {
    CM_EXPECTS_MSG(n <= UINT32_MAX, "codec count overflows u32 wire field");
    put<std::uint32_t>(static_cast<std::uint32_t>(n));
  }

  void put_string(const std::string& s) {
    put_count(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    put_bytes({p, s.size()});
  }

  template <typename T>
  void put_vector(const std::vector<T>& v) {
    put_count(v.size());
    for (const T& x : v) put(x);
  }

  [[nodiscard]] std::vector<std::byte> take() && { return std::move(buf_); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Reads primitive values back out of a byte buffer. Over-reads are
/// contract violations: messages are produced by our own ByteWriter.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) noexcept : bytes_(bytes) {}

  template <typename T>
    requires std::is_integral_v<T> || std::is_floating_point_v<T> ||
             std::is_enum_v<T>
  [[nodiscard]] T get() {
    CM_EXPECTS_MSG(pos_ + sizeof(T) <= bytes_.size(), "codec under-run");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads an unsigned LEB128 varint. Aborts on a varint cut off by the
  /// end of the buffer, and on one longer than ten bytes or whose tenth
  /// byte carries more than bit 63, either of which overflows a u64.
  [[nodiscard]] std::uint64_t get_varint() {
    CM_EXPECTS_MSG(pos_ < bytes_.size(), "codec under-run (varint)");
    std::uint64_t v = std::to_integer<std::uint64_t>(bytes_[pos_++]);
    if (v < 0x80) return v;  // one byte: the common case
    v &= 0x7f;
    for (unsigned shift = 7;; shift += 7) {
      CM_EXPECTS_MSG(pos_ < bytes_.size(), "codec under-run (varint)");
      const auto b = std::to_integer<std::uint64_t>(bytes_[pos_++]);
      CM_EXPECTS_MSG(shift < 63 || b <= 1, "varint overflows u64");
      v |= (b & 0x7f) << shift;
      if ((b & 0x80) == 0) return v;
    }
  }

  [[nodiscard]] std::string get_string() {
    const auto n = get<std::uint32_t>();
    // Validate the wire count against the bytes actually present BEFORE
    // allocating: a corrupt count must fail the contract check, not reserve
    // gigabytes first.
    CM_EXPECTS_MSG(n <= remaining(), "codec under-run (string)");
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  [[nodiscard]] std::vector<T> get_vector() {
    const auto n = get<std::uint32_t>();
    // Same rule as get_string: each element needs sizeof(T) payload bytes,
    // so any count exceeding remaining()/sizeof(T) is corrupt — check it
    // before reserve() can allocate from the unvalidated count.
    CM_EXPECTS_MSG(remaining() / sizeof(T) >= n, "codec under-run (vector)");
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(get<T>());
    return v;
  }

  [[nodiscard]] bool exhausted() const noexcept { return pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_{0};
};

}  // namespace causalmem
