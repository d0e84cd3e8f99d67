// The VectorClock, sparse or dense, against a dense reference: random
// operation sequences at every clock size the system runs (3-4 threaded
// nodes up to 1,024 simulated ones) and every density from one nonzero to
// all, so clocks of both forms meet in every operation, plus the wire bytes
// of the clock frame against a reference encoder that works from the dense
// components, and frame round trips at every size and form.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "causalmem/common/codec.hpp"
#include "causalmem/common/rng.hpp"
#include "causalmem/vclock/vector_clock.hpp"

namespace causalmem {
namespace {

using Dense = std::vector<std::uint64_t>;

ClockOrder dense_compare(const Dense& a, const Dense& b) {
  bool less = false;
  bool greater = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    less = less || a[i] < b[i];
    greater = greater || a[i] > b[i];
  }
  if (less && greater) return ClockOrder::kConcurrent;
  if (less) return ClockOrder::kBefore;
  if (greater) return ClockOrder::kAfter;
  return ClockOrder::kEqual;
}

using Nonzeros = std::vector<std::pair<std::uint32_t, std::uint64_t>>;

Nonzeros nonzeros_of(const VectorClock& c) {
  Nonzeros out;
  for (VectorClock::NonzeroCursor k(c); !k.done(); k.next()) {
    out.emplace_back(k.index(), k.value());
  }
  return out;
}

/// The clock's nonzero components must be exactly the reference's, in index
/// order, and its form the one its nonzero count calls for.
void expect_matches(const VectorClock& c, const Dense& ref) {
  ASSERT_EQ(c.size(), ref.size());
  Nonzeros want;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != 0) want.emplace_back(static_cast<std::uint32_t>(i), ref[i]);
  }
  ASSERT_EQ(c.nonzero_count(), want.size());
  ASSERT_EQ(nonzeros_of(c), want);
  ASSERT_EQ(c.dense(),
            want.size() > VectorClock::dense_above(
                              static_cast<std::uint32_t>(ref.size())));
  Dense dense;
  c.to_dense(dense);
  ASSERT_EQ(dense, ref);
}

/// A clock of size n with about `nonzeros` random nonzero components.
Dense random_dense(Rng& rng, std::size_t n, std::size_t nonzeros) {
  Dense d(n, 0);
  for (std::size_t k = 0; k < nonzeros; ++k) {
    d[rng.next_below(n)] = 1 + rng.next_below(5);
  }
  return d;
}

constexpr std::size_t kSizes[] = {1, 3, 4, 64, 256, 1024};

/// Densities to start from: one nonzero, a few, a quarter, all.
std::vector<std::size_t> densities(std::size_t n) {
  return {1, std::min<std::size_t>(n, 16), std::max<std::size_t>(1, n / 4),
          n * 4};
}

TEST(SparseClock, RandomOperationsMatchADenseReference) {
  for (const std::size_t n : kSizes) {
    for (const std::size_t density : densities(n)) {
      Rng rng(n * 7919 + density);
      // A handful of clocks, each paired with its dense reference.
      constexpr std::size_t kClocks = 5;
      std::vector<VectorClock> clocks;
      std::vector<Dense> refs;
      for (std::size_t c = 0; c < kClocks; ++c) {
        refs.push_back(random_dense(rng, n, rng.next_below(density + 1)));
        clocks.emplace_back(refs.back());
      }
      // Increments land in a band of `density` indices, so clocks stay at
      // the density this round tests.
      const std::size_t band = std::min(n, density);
      for (int step = 0; step < 1500; ++step) {
        const std::size_t a = rng.next_below(kClocks);
        const std::size_t b = rng.next_below(kClocks);
        switch (rng.next_below(7)) {
          case 0:
          case 1: {
            const auto i = static_cast<NodeId>(
                (rng.next_below(band) * 131) % n);
            clocks[a].increment(i);
            ++refs[a][i];
            break;
          }
          case 2: {
            clocks[a].update(clocks[b]);
            for (std::size_t i = 0; i < n; ++i) {
              refs[a][i] = std::max(refs[a][i], refs[b][i]);
            }
            break;
          }
          case 3:
            ASSERT_EQ(clocks[a].compare(clocks[b]),
                      dense_compare(refs[a], refs[b]));
            ASSERT_EQ(clocks[a].before(clocks[b]),
                      dense_compare(refs[a], refs[b]) == ClockOrder::kBefore);
            ASSERT_EQ(clocks[a] == clocks[b], refs[a] == refs[b]);
            break;
          case 4: {
            const auto i = static_cast<NodeId>(rng.next_below(n));
            ASSERT_EQ(clocks[a][i], refs[a][i]);
            break;
          }
          case 5: {  // copy / move between inline and heap storage
            if (rng.chance(0.5)) {
              clocks[a] = clocks[b];
            } else {
              VectorClock tmp = clocks[b];
              clocks[a] = std::move(tmp);
            }
            refs[a] = refs[b];
            break;
          }
          default: {  // restart from a fresh random clock
            refs[a] = random_dense(rng, n, rng.next_below(density + 1));
            clocks[a] = VectorClock(refs[a]);
            break;
          }
        }
        ASSERT_NO_FATAL_FAILURE(expect_matches(clocks[a], refs[a]))
            << "n=" << n << " density=" << density << " step=" << step;
      }
    }
  }
}

TEST(SparseClock, LeqJoinMatchesTheComponentwiseDefinition) {
  for (const std::size_t n : kSizes) {
    Rng rng(n);
    for (int round = 0; round < 400; ++round) {
      const std::size_t nz = 1 + rng.next_below(n);
      const Dense x = random_dense(rng, n, nz);
      const Dense a = random_dense(rng, n, nz);
      Dense b = random_dense(rng, n, nz);
      if (rng.chance(0.5)) {  // make the dominated case common
        for (std::size_t i = 0; i < n; ++i) b[i] = std::max(b[i], x[i]);
      }
      bool want = true;
      for (std::size_t i = 0; i < n; ++i) {
        want = want && x[i] <= std::max(a[i], b[i]);
      }
      EXPECT_EQ(VectorClock(x).leq_join(VectorClock(a), VectorClock(b)), want)
          << "n=" << n << " round=" << round;
    }
  }
}

TEST(SparseClock, OneNonzeroOfManyStoresOneEntry) {
  VectorClock c(1024);
  EXPECT_EQ(c.nonzero_count(), 0u);
  c.increment(700);
  c.increment(700);
  EXPECT_EQ(c.nonzero_count(), 1u);
  EXPECT_FALSE(c.dense());  // the one entry, not 1,024 components
  EXPECT_EQ(c[700], 2u);
  EXPECT_EQ(c[699], 0u);

  // Its frame is the one component too: n = 1,024 (2 bytes), one nonzero
  // (1), index gap 700 (2) and value 2 (1). The decoded clock stores one.
  ByteWriter w;
  c.encode(w);
  EXPECT_EQ(w.bytes().size(), 6u);
  ByteReader r(w.bytes());
  const VectorClock back = VectorClock::decode(r);
  EXPECT_EQ(back.nonzero_count(), 1u);
  EXPECT_FALSE(back.dense());
  EXPECT_EQ(back, c);

  VectorClock other(1024);
  other.increment(3);
  c.update(other);
  EXPECT_EQ(c.nonzero_count(), 2u);
  EXPECT_FALSE(c.dense());
}

TEST(SparseClock, PassingTheThresholdSwitchesToTheDenseForm) {
  constexpr std::uint32_t kN = 256;
  const std::uint32_t limit = VectorClock::dense_above(kN);  // 32
  VectorClock c(kN);
  for (std::uint32_t i = 0; i < limit; ++i) c.increment(i * 7 % kN);
  EXPECT_FALSE(c.dense());
  c.increment(255);
  EXPECT_TRUE(c.dense());
  EXPECT_EQ(c.nonzero_count(), limit + 1);
  // Equal contents reached either way compare equal, in the same form.
  Dense d(kN, 0);
  for (std::uint32_t i = 0; i < limit; ++i) d[i * 7 % kN] = 1;
  d[255] = 1;
  EXPECT_EQ(VectorClock(d), c);
  // A sparse clock merging past the threshold switches too.
  VectorClock s(kN);
  s.increment(7);  // a component c holds, so the join is c itself
  s.update(c);
  EXPECT_TRUE(s.dense());
  EXPECT_EQ(s, c);
}

// Wire bytes ---------------------------------------------------------------

/// The clock frame written straight from dense components, with its own
/// LEB128 writer: n, the nonzero count, then for each nonzero component the
/// number of zeros skipped since the previous one and its value.
std::vector<std::byte> reference_frame(const Dense& c) {
  std::vector<std::byte> out;
  const auto varint = [&out](std::uint64_t v) {
    do {
      const auto low = static_cast<std::uint8_t>(v & 0x7f);
      v >>= 7;
      out.push_back(static_cast<std::byte>(v != 0 ? low | 0x80 : low));
    } while (v != 0);
  };
  varint(c.size());
  varint(static_cast<std::uint64_t>(
      std::ranges::count_if(c, [](std::uint64_t v) { return v != 0; })));
  std::uint64_t zeros = 0;
  for (const std::uint64_t v : c) {
    if (v == 0) {
      ++zeros;
      continue;
    }
    varint(zeros);
    varint(v);
    zeros = 0;
  }
  return out;
}

/// A nonzero value of a random byte length on the wire, 1 to 10 bytes.
std::uint64_t random_value(Rng& rng) {
  switch (rng.next_below(4)) {
    case 0: return 1 + rng.next_below(5);
    case 1: return UINT64_MAX;
    default: return (rng.next() >> rng.next_below(64)) | 1;
  }
}

/// A clock of size n with exactly `nonzeros` nonzero components at distinct
/// random indices.
Dense exact_dense(Rng& rng, std::size_t n, std::size_t nonzeros) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  Dense d(n, 0);
  for (std::size_t k = 0; k < nonzeros; ++k) {
    std::swap(idx[k], idx[k + rng.next_below(n - k)]);
    d[idx[k]] = random_value(rng);
  }
  return d;
}

TEST(SparseClock, WireBytesMatchADenseEncoder) {
  for (const std::size_t n : kSizes) {
    Rng rng(n + 1);
    VectorClock decoded;  // reused across frames, as the transports do
    for (int frame = 0; frame < 300; ++frame) {
      const Dense dense = exact_dense(rng, n, rng.next_below(n + 1));
      const VectorClock clock(dense);
      ByteWriter w;
      clock.encode(w);
      ASSERT_TRUE(std::ranges::equal(w.bytes(), reference_frame(dense)))
          << "n=" << n << " frame=" << frame;
      ByteReader r(w.bytes());
      decoded.decode_in_place(r);
      EXPECT_TRUE(r.exhausted());
      ASSERT_NO_FATAL_FAILURE(expect_matches(decoded, dense));
    }
  }
  // The empty clock of a stamp-less message: n = 0, no nonzeros.
  ByteWriter w;
  VectorClock().encode(w);
  EXPECT_TRUE(std::ranges::equal(w.bytes(), reference_frame({})));
  EXPECT_EQ(w.bytes().size(), 2u);
}

TEST(SparseClock, FramesRoundTripAtEverySizeAndForm) {
  // One target decodes every frame, so its storage is reused across sizes
  // and between the sparse and dense forms in both directions.
  VectorClock reused;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{4}, std::size_t{64},
                              std::size_t{256}, std::size_t{1024}}) {
    const auto limit =
        static_cast<std::size_t>(VectorClock::dense_above(
            static_cast<std::uint32_t>(n)));
    // None, one, the last sparse count, the first dense one, half, all.
    for (const std::size_t want :
         {std::size_t{0}, std::size_t{1}, limit, limit + 1, n / 2, n}) {
      const std::size_t nonzeros = std::min(want, n);
      Rng rng(n * 31 + nonzeros);
      for (int round = 0; round < 8; ++round) {
        const Dense dense = exact_dense(rng, n, nonzeros);
        const VectorClock clock(dense);
        ByteWriter w;
        clock.encode(w);

        ByteReader fresh(w.bytes());
        const VectorClock back = VectorClock::decode(fresh);
        EXPECT_TRUE(fresh.exhausted());
        ASSERT_EQ(back, clock) << "n=" << n << " nonzeros=" << nonzeros;
        ASSERT_EQ(back.dense(), clock.dense());

        ByteReader again(w.bytes());
        reused.decode_in_place(again);
        ASSERT_EQ(reused, clock) << "n=" << n << " nonzeros=" << nonzeros;
        ASSERT_EQ(reused.dense(), clock.dense());
        ASSERT_NO_FATAL_FAILURE(expect_matches(reused, dense));
      }
    }
  }
}

TEST(SparseClock, PersistLayoutIsTheDenseComponents) {
  // encode_dense is also the checkpoint and WAL clock layout: u32 n, then
  // n u64 components.
  const Dense d = {0, 7, 0, 0, 9};
  ByteWriter w;
  VectorClock(d).encode_dense(w);
  ByteWriter want;
  want.put_count(d.size());
  for (const std::uint64_t v : d) want.put<std::uint64_t>(v);
  EXPECT_TRUE(std::ranges::equal(w.bytes(), want.bytes()));
}

}  // namespace
}  // namespace causalmem
