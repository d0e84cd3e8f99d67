// Measurement helpers shared by the benchmark workloads: a fine-grained
// latency histogram, an in-memory span recorder for the traced runs, process
// resource probes (getrusage, VmHWM, /proc/net/netstat) and the value
// encoding every workload writes so reads can be checked.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "causalmem/common/types.hpp"
#include "causalmem/obs/histogram.hpp"

namespace perfbench {

using causalmem::Addr;
using causalmem::NodeId;
using causalmem::Value;

[[nodiscard]] inline std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median of a sample list (mean of the middle two for an even count).
[[nodiscard]] double median(std::vector<double> v);

/// num / den, or 0 when there is nothing to divide by.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Nanosecond histogram: 1 ns buckets below 4096 ns, then 256 log-linear
/// buckets per octave (0.4% wide). Quantiles interpolate inside the bucket,
/// so a reported percentile keeps its digits instead of snapping to a
/// bucket edge.
class LatencyHist {
 public:
  void record(std::uint64_t ns) noexcept {
    ++buckets_[index(ns)];
    ++count_;
  }
  void merge(const LatencyHist& o) noexcept;
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Value at quantile q in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  static constexpr std::uint64_t kLinear = 4096;
  static constexpr int kSubBits = 8;
  static constexpr std::size_t kBuckets = kLinear + (64 - 12) * (1u << kSubBits);
  [[nodiscard]] static std::size_t index(std::uint64_t ns) noexcept;
  [[nodiscard]] static double lower(std::size_t i) noexcept;
  [[nodiscard]] static double width(std::size_t i) noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_{0};
};

/// Interpolated quantile (q in [0, 1]) of a causalmem histogram snapshot.
[[nodiscard]] double snapshot_quantile(const causalmem::obs::HistogramSnapshot& h,
                                       double q);

/// Span names recorded by the traced runs, one per layer boundary the
/// benchmark calls through.
enum class SpanName : std::uint8_t {
  kOpReadLocal,
  kOpReadRemote,
  kOpWriteLocal,
  kOpWriteRemote,
  kHistoryFeed,
  kVfsAppend,
  kVfsSync,
  kVfsWriteAtomic,
  kVfsRead,
  kVfsOther,
  kRestartNode,
  kSimPick,
  kCount,
};
inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
[[nodiscard]] const char* span_name(SpanName n) noexcept;

/// Per-name totals over every recorded span.
struct SpanTotals {
  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::uint64_t self_ns{0};  ///< duration minus the time child spans cover
  LatencyHist dur;
};

/// Process-wide span recorder. Disabled, a ScopedSpan costs one relaxed
/// load. Enabled, each thread keeps a stack of open spans (for self time)
/// and per-name totals; the first 200,000 spans of the process are also
/// kept verbatim and written out by write_jsonl(). Spans opened inside an OpScope on the
/// same thread carry that operation's id.
class Tracer {
 public:
  static void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Folds every thread's spans into the totals. Call after the threads
  /// that recorded have exited (live ones are folded as well, but racily).
  static void collect();
  [[nodiscard]] static const std::array<SpanTotals, kSpanNames>& totals();
  /// Writes the retained raw spans as JSON lines; false on I/O failure.
  static bool write_jsonl(const std::string& path);

 private:
  static std::atomic<bool> enabled_;
};

/// Marks the calling thread's next spans as belonging to one operation.
class OpScope {
 public:
  OpScope() noexcept;
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  bool active_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_;
};

/// getrusage(RUSAGE_SELF) summed over every thread of the process.
struct Usage {
  double cpu_us{0.0};
  std::uint64_t ctx_switches{0};
  static Usage now();
  friend Usage operator-(Usage a, const Usage& b) {
    a.cpu_us -= b.cpu_us;
    a.ctx_switches -= b.ctx_switches;
    return a;
  }
};

/// Peak resident set (VmHWM) of this process in MiB.
[[nodiscard]] double peak_rss_mb();
/// IpExt OutOctets from /proc/net/netstat (0 when unreadable).
[[nodiscard]] std::uint64_t net_out_octets();

/// Every value a workload writes names its address, its writer and the
/// writer's sequence number, so a read can be checked on its own. Sequence
/// 0 is the prepopulated value, written by the location's owner.
namespace codec {
inline constexpr int kSeqBits = 32;
inline constexpr int kWriterBits = 10;
[[nodiscard]] inline Value encode(Addr a, NodeId writer, std::uint64_t seq) {
  return static_cast<Value>(((a + 1) << (kSeqBits + kWriterBits)) |
                            (static_cast<std::uint64_t>(writer) << kSeqBits) |
                            seq);
}
struct Decoded {
  Addr addr;
  NodeId writer;
  std::uint64_t seq;
};
[[nodiscard]] inline Decoded decode(Value v) {
  const auto u = static_cast<std::uint64_t>(v);
  return Decoded{(u >> (kSeqBits + kWriterBits)) - 1,
                 static_cast<NodeId>((u >> kSeqBits) & ((1u << kWriterBits) - 1)),
                 u & ((std::uint64_t{1} << kSeqBits) - 1)};
}
}  // namespace codec

}  // namespace perfbench
