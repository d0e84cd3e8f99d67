// Log-bucketed latency histogram, HDR-style: values are bucketed by power of
// two (octave) with a fixed number of linear sub-buckets per octave, so the
// worst-case relative quantization error is 1/kSubBuckets (~6%) at any
// magnitude. A live Histogram allocates a 16-bucket row per octave only when
// a sample first lands there; a snapshot is the full ~8 KB array. Recording
// is one relaxed fetch_add per sample — safe from any thread, never a
// synchronization point (same policy as NodeStats counters). Snapshots are
// plain structs: mergeable across nodes/runs and queryable for percentiles.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

namespace causalmem::obs {

/// Plain (non-atomic) histogram state: bucket counts plus exact count / sum /
/// max. Merge with += ; percentiles interpolate nothing — they return the
/// upper bound of the bucket containing the target rank (clamped to the exact
/// tracked max, so percentile(100) is exact).
struct HistogramSnapshot {
  static constexpr std::uint32_t kSubBits = 4;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;  // 16
  /// Octaves 2^kSubBits .. 2^63 plus the initial linear range.
  static constexpr std::size_t kBucketCount =
      (65 - kSubBits) * static_cast<std::size_t>(kSubBuckets);  // 976

  std::array<std::uint64_t, kBucketCount> buckets{};
  std::uint64_t count{0};
  std::uint64_t sum{0};
  std::uint64_t max{0};

  /// Bucket index for a value: identity below kSubBuckets, log-linear above.
  [[nodiscard]] static constexpr std::size_t bucket_index(
      std::uint64_t v) noexcept {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int shift = std::bit_width(v) - 1 - static_cast<int>(kSubBits);
    const std::uint64_t sub = v >> shift;  // in [kSubBuckets, 2*kSubBuckets)
    return (static_cast<std::size_t>(shift) + 1) * kSubBuckets +
           static_cast<std::size_t>(sub - kSubBuckets);
  }

  /// Smallest value mapping to bucket `i`.
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(
      std::size_t i) noexcept {
    if (i < kSubBuckets) return i;
    const std::size_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + i % kSubBuckets;
    return sub << shift;
  }

  /// Largest value mapping to bucket `i` (inclusive).
  [[nodiscard]] static constexpr std::uint64_t bucket_upper(
      std::size_t i) noexcept {
    if (i < kSubBuckets) return i;
    const std::size_t shift = i / kSubBuckets - 1;
    const std::uint64_t sub = kSubBuckets + i % kSubBuckets;
    return ((sub + 1) << shift) - 1;
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Value at or below which at least `p` percent of samples fall (p in
  /// [0, 100]). 0 for an empty histogram.
  [[nodiscard]] std::uint64_t percentile(double p) const noexcept {
    if (count == 0) return 0;
    p = std::clamp(p, 0.0, 100.0);
    const double exact = p / 100.0 * static_cast<double>(count);
    std::uint64_t target =
        static_cast<std::uint64_t>(exact) +
        (exact > static_cast<double>(static_cast<std::uint64_t>(exact)) ? 1
                                                                        : 0);
    if (target == 0) target = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      seen += buckets[i];
      if (seen >= target) return std::min(bucket_upper(i), max);
    }
    return max;
  }

  HistogramSnapshot& operator+=(const HistogramSnapshot& other) noexcept {
    for (std::size_t i = 0; i < kBucketCount; ++i) buckets[i] += other.buckets[i];
    count += other.count;
    sum += other.sum;
    max = std::max(max, other.max);
    return *this;
  }
};

/// Live histogram: atomic counterpart of HistogramSnapshot, resettable,
/// read via snapshot(). The buckets come in rows of kSubBuckets, one per
/// octave, and a row is allocated (zeroed) by the first sample that lands in
/// it: a latency metric typically spans a few octaves, so a histogram costs
/// one pointer per row plus the rows in use instead of the whole ~8 KB
/// bucket array. Recording adds one pointer load to the relaxed fetch_adds.
class Histogram {
 public:
  static constexpr std::size_t kRowCount =
      HistogramSnapshot::kBucketCount / HistogramSnapshot::kSubBuckets;  // 61

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram() {
    for (auto& r : rows_) delete r.load(std::memory_order_relaxed);
  }

  void record(std::uint64_t v) noexcept {
    const std::size_t b = HistogramSnapshot::bucket_index(v);
    row(b / HistogramSnapshot::kSubBuckets)[b % HistogramSnapshot::kSubBuckets]
        .fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  /// Rows no sample has reached read as zeros.
  [[nodiscard]] HistogramSnapshot snapshot() const noexcept {
    HistogramSnapshot s;
    for (std::size_t r = 0; r < kRowCount; ++r) {
      const Row* row = rows_[r].load(std::memory_order_acquire);
      if (row == nullptr) continue;
      for (std::size_t i = 0; i < HistogramSnapshot::kSubBuckets; ++i) {
        s.buckets[r * HistogramSnapshot::kSubBuckets + i] =
            (*row)[i].load(std::memory_order_relaxed);
      }
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  /// Zeroes every row in place — rows are never freed before destruction,
  /// so a concurrent record() always lands in live memory.
  void reset() noexcept {
    for (auto& r : rows_) {
      if (Row* row = r.load(std::memory_order_acquire)) {
        for (auto& b : *row) b.store(0, std::memory_order_relaxed);
      }
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  using Row =
      std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kSubBuckets>;

  Row& row(std::size_t r) noexcept {
    if (Row* row = rows_[r].load(std::memory_order_acquire)) [[likely]] {
      return *row;
    }
    return install_row(r);
  }

  /// First sample in row r: publishes a zeroed row. A recorder that loses
  /// the race frees its row and uses the winner's.
  [[gnu::noinline]] Row& install_row(std::size_t r) noexcept {
    Row* fresh = new Row{};
    Row* seen = nullptr;
    if (rows_[r].compare_exchange_strong(seen, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return *fresh;
    }
    delete fresh;
    return *seen;
  }

  std::array<std::atomic<Row*>, kRowCount> rows_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

}  // namespace causalmem::obs
