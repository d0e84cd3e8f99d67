// The VectorClock, sparse or dense, against a dense reference: random
// operation sequences at every clock size the system runs (3-4 threaded
// nodes up to 1,024 simulated ones) and every density from one nonzero to
// all, so clocks of both forms meet in every operation, plus the wire bytes
// of full frames, delta chains and empty-clock transparency against a dense
// reference encoder.
#include <gtest/gtest.h>

#include <algorithm>
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

  // A decoded full frame (1,024 components on the wire) stores one too.
  ByteWriter w;
  c.encode(w);
  EXPECT_EQ(w.bytes().size(), 1 + 4 + 8 * 1024u);
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

/// A dense encoder with the wire format's rules spelled out directly.
struct DenseEncoder {
  Dense baseline;

  static void full(ByteWriter& w, const Dense& c) {
    w.put<std::uint8_t>(VectorClock::kWireFull);
    w.put_count(c.size());
    for (const std::uint64_t v : c) w.put<std::uint64_t>(v);
  }

  void encode(ByteWriter& w, const Dense& c) {
    if (c.empty()) {  // transparent to the baseline
      full(w, c);
      return;
    }
    if (baseline.size() == c.size()) {
      std::size_t ndeltas = 0;
      for (std::size_t i = 0; i < c.size(); ++i) ndeltas += c[i] != baseline[i];
      if (8 + 12 * ndeltas < 4 + 8 * c.size()) {
        w.put<std::uint8_t>(VectorClock::kWireDelta);
        w.put_count(c.size());
        w.put<std::uint32_t>(static_cast<std::uint32_t>(ndeltas));
        for (std::size_t i = 0; i < c.size(); ++i) {
          if (c[i] != baseline[i]) {
            w.put<std::uint32_t>(static_cast<std::uint32_t>(i));
            w.put<std::uint64_t>(c[i]);
          }
        }
        baseline = c;
        return;
      }
    }
    full(w, c);
    baseline = c;
  }
};

TEST(SparseClock, WireBytesMatchADenseEncoder) {
  for (const std::size_t n : kSizes) {
    Rng rng(n + 1);
    ClockCodecState tx;
    ClockCodecState rx;
    DenseEncoder ref;
    Dense cur = random_dense(rng, n, 1);
    VectorClock decoded;  // reused across frames, as the transports do
    for (int frame = 0; frame < 600; ++frame) {
      Dense next;
      switch (rng.next_below(6)) {
        case 0:  // stamp-less control frame
          break;
        case 1:  // an unrelated clock: usually a full frame
          cur = random_dense(rng, n, 1 + rng.next_below(n));
          next = cur;
          break;
        case 2:  // a resized clock breaks the chain
          next = random_dense(rng, n + 1, 2);
          break;
        default:  // a few components move: usually a delta frame
          for (std::size_t k = 1 + rng.next_below(3); k > 0; --k) {
            ++cur[rng.next_below(n)];
          }
          next = cur;
          break;
      }
      const VectorClock clock(next);

      ByteWriter stateless;
      clock.encode(stateless);
      ByteWriter stateless_ref;
      DenseEncoder::full(stateless_ref, next);
      ASSERT_TRUE(std::ranges::equal(stateless.bytes(), stateless_ref.bytes()));

      ByteWriter w;
      clock.encode(w, tx);
      ByteWriter want;
      ref.encode(want, next);
      ASSERT_TRUE(std::ranges::equal(w.bytes(), want.bytes()))
          << "n=" << n << " frame=" << frame;
      ASSERT_EQ(tx.baseline, ref.baseline);

      ByteReader r(w.bytes());
      decoded.decode_in_place(r, &rx);
      EXPECT_TRUE(r.exhausted());
      ASSERT_NO_FATAL_FAILURE(expect_matches(decoded, next));
      ASSERT_EQ(rx.baseline, ref.baseline);
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
