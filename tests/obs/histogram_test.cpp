// Log-bucketed histogram: bucket-boundary math, merge, and percentile
// semantics (bucket upper bound, clamped to the exact tracked max), and
// the live histogram's rows allocated on first use.
#include "causalmem/obs/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "causalmem/common/rng.hpp"
#include "causalmem/stats/counters.hpp"

namespace causalmem::obs {
namespace {

using S = HistogramSnapshot;

TEST(HistogramBuckets, IdentityBelowSubBuckets) {
  for (std::uint64_t v = 0; v < S::kSubBuckets; ++v) {
    EXPECT_EQ(S::bucket_index(v), v);
    EXPECT_EQ(S::bucket_lower(v), v);
    EXPECT_EQ(S::bucket_upper(v), v);  // exact below 16
  }
}

TEST(HistogramBuckets, BoundariesTileTheRange) {
  // Every bucket's range must start right after the previous bucket's end —
  // no gaps, no overlaps — across the whole 64-bit range.
  for (std::size_t i = 1; i < S::kBucketCount; ++i) {
    EXPECT_EQ(S::bucket_lower(i), S::bucket_upper(i - 1) + 1) << "bucket " << i;
    EXPECT_GE(S::bucket_upper(i), S::bucket_lower(i)) << "bucket " << i;
  }
  EXPECT_EQ(S::bucket_upper(S::kBucketCount - 1), UINT64_MAX);
}

TEST(HistogramBuckets, ValuesMapInsideTheirBucket) {
  const std::uint64_t probes[] = {0,   1,    15,   16,   17,        31,
                                  32,  100,  1023, 1024, 123456789, UINT64_MAX,
                                  255, 4096, (1ULL << 63) + 17};
  for (const std::uint64_t v : probes) {
    const std::size_t i = S::bucket_index(v);
    ASSERT_LT(i, S::kBucketCount) << v;
    EXPECT_GE(v, S::bucket_lower(i)) << v;
    EXPECT_LE(v, S::bucket_upper(i)) << v;
  }
}

TEST(HistogramBuckets, RelativeErrorBounded) {
  // Log-linear with 16 sub-buckets per octave: bucket width <= lower/16,
  // so reporting the upper bound overstates by at most ~1/16.
  for (const std::uint64_t v : {100ULL, 999ULL, 65536ULL, 1000000007ULL}) {
    const std::size_t i = S::bucket_index(v);
    const double lower = static_cast<double>(S::bucket_lower(i));
    const double upper = static_cast<double>(S::bucket_upper(i));
    EXPECT_LE((upper - lower) / lower, 1.0 / 16.0 + 1e-9) << v;
  }
}

TEST(Histogram, CountSumMaxMean) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  const S s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 60u);
  EXPECT_EQ(s.max, 30u);
  EXPECT_DOUBLE_EQ(s.mean(), 20.0);
}

TEST(Histogram, PercentileExactInLinearRange) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10; ++v) h.record(v);  // all below 16: exact
  const S s = h.snapshot();
  EXPECT_EQ(s.percentile(0.0), 1u);    // rank clamps to the first sample
  EXPECT_EQ(s.percentile(50.0), 5u);   // ceil(0.5 * 10) = 5th sample
  EXPECT_EQ(s.percentile(90.0), 9u);
  EXPECT_EQ(s.percentile(100.0), 10u);
}

TEST(Histogram, PercentileReturnsBucketUpperClampedToMax) {
  Histogram h;
  h.record(1000);  // bucket upper bound is > 1000
  const S s = h.snapshot();
  // Single sample: every percentile is that sample's bucket, clamped to the
  // exact max — so the reported value is exact here.
  EXPECT_EQ(s.percentile(50.0), 1000u);
  EXPECT_EQ(s.percentile(99.0), 1000u);
}

TEST(Histogram, PercentileEmptyIsZero) {
  EXPECT_EQ(S{}.percentile(50.0), 0u);
  EXPECT_DOUBLE_EQ(S{}.mean(), 0.0);
}

TEST(Histogram, MergeAddsEverything) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) a.record(10);
  for (int i = 0; i < 100; ++i) b.record(100000);
  S sa = a.snapshot();
  const S sb = b.snapshot();
  sa += sb;
  EXPECT_EQ(sa.count, 200u);
  EXPECT_EQ(sa.sum, 100u * 10 + 100u * 100000);
  EXPECT_EQ(sa.max, 100000u);
  // Median sits in the low cluster, p99 in the high cluster.
  EXPECT_EQ(sa.percentile(50.0), 10u);
  EXPECT_GE(sa.percentile(99.0), 100000u - 100000u / 16);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(123);
  h.reset();
  const S s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(Histogram, ConcurrentRecordLosesNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, t] {
        for (int i = 0; i < kPerThread; ++i) {
          h.record(static_cast<std::uint64_t>(t * 1000 + i % 997));
        }
      });
    }
  }
  const S s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (const auto c : s.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, s.count);
}

// Rows on demand --------------------------------------------------------

/// Samples that reach every octave: the linear range's edges, every power
/// of two and its neighbours, UINT64_MAX, and random values of every bit
/// width.
std::vector<std::uint64_t> samples_across_octaves() {
  std::vector<std::uint64_t> v = {0, 1, 15, 16, 17, UINT64_MAX, UINT64_MAX - 1};
  for (int k = 1; k < 64; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    v.insert(v.end(), {p - 1, p, p + 1});
  }
  Rng rng(25);
  for (int i = 0; i < 4000; ++i) {
    const int width = static_cast<int>(rng.next_below(65));
    v.push_back(width == 0 ? 0 : rng.next() >> (64 - width));
  }
  return v;
}

TEST(HistogramRows, SnapshotMatchesAFlatReference) {
  Histogram h;
  std::array<std::uint64_t, S::kBucketCount> flat{};
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  const auto samples = samples_across_octaves();
  for (const std::uint64_t v : samples) {
    h.record(v);
    ++flat[S::bucket_index(v)];
    sum += v;
    max = std::max(max, v);
  }
  const S s = h.snapshot();
  for (std::size_t i = 0; i < S::kBucketCount; ++i) {
    ASSERT_EQ(s.buckets[i], flat[i]) << "bucket " << i;
  }
  EXPECT_EQ(s.count, samples.size());
  EXPECT_EQ(s.sum, sum);  // wraps identically
  EXPECT_EQ(s.max, max);
}

TEST(HistogramRows, UntouchedRowsReadAsZero) {
  Histogram h;
  h.record(1'000'000);  // one row in the middle of the range
  const S s = h.snapshot();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < S::kBucketCount; ++i) {
    if (i != S::bucket_index(1'000'000)) total += s.buckets[i];
  }
  EXPECT_EQ(total, 0u);
  EXPECT_EQ(s.buckets[S::bucket_index(1'000'000)], 1u);
}

TEST(HistogramRows, ResetZeroesEveryRowAndRecordingResumes) {
  Histogram h;
  for (const std::uint64_t v : samples_across_octaves()) h.record(v);
  h.reset();
  const S cleared = h.snapshot();
  for (const auto c : cleared.buckets) ASSERT_EQ(c, 0u);
  EXPECT_EQ(cleared.count, 0u);
  EXPECT_EQ(cleared.sum, 0u);
  EXPECT_EQ(cleared.max, 0u);
  h.record(17);
  const S again = h.snapshot();
  EXPECT_EQ(again.count, 1u);
  EXPECT_EQ(again.buckets[S::bucket_index(17)], 1u);
}

TEST(HistogramRows, ConcurrentFirstSamplesInstallEachRowOnce) {
  // Four threads record the same values at once, so every row is first
  // touched by several of them: the losers' rows must be discarded without
  // losing a single count.
  Histogram h;
  const auto samples = samples_across_octaves();
  constexpr int kThreads = 4;
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&h, &samples] {
        for (const std::uint64_t v : samples) h.record(v);
      });
    }
  }
  std::array<std::uint64_t, S::kBucketCount> flat{};
  for (const std::uint64_t v : samples) flat[S::bucket_index(v)] += kThreads;
  const S s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * samples.size());
  for (std::size_t i = 0; i < S::kBucketCount; ++i) {
    ASSERT_EQ(s.buckets[i], flat[i]) << "bucket " << i;
  }
}

TEST(HistogramRows, NodeStatsStaysSmall) {
  // A node's four latency histograms cost pointers until they record, so
  // building a 256-node system does not zero-fill megabytes.
  EXPECT_LT(sizeof(NodeStats), 4096u);
}

}  // namespace
}  // namespace causalmem::obs
