#include "causalmem/vclock/vector_clock.hpp"

#include <gtest/gtest.h>

namespace causalmem {
namespace {

TEST(VectorClock, ZeroClocksAreEqual) {
  VectorClock a(3), b(3);
  EXPECT_EQ(a.compare(b), ClockOrder::kEqual);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.before(b));
  EXPECT_FALSE(a.concurrent_with(b));
}

TEST(VectorClock, IncrementCreatesDomination) {
  VectorClock a(3), b(3);
  b.increment(1);
  EXPECT_EQ(a.compare(b), ClockOrder::kBefore);
  EXPECT_EQ(b.compare(a), ClockOrder::kAfter);
  EXPECT_TRUE(a.before(b));
  EXPECT_FALSE(b.before(a));
}

TEST(VectorClock, IndependentIncrementsAreConcurrent) {
  VectorClock a(3), b(3);
  a.increment(0);
  b.increment(2);
  EXPECT_EQ(a.compare(b), ClockOrder::kConcurrent);
  EXPECT_TRUE(a.concurrent_with(b));
  EXPECT_TRUE(b.concurrent_with(a));
}

TEST(VectorClock, UpdateIsComponentwiseMax) {
  VectorClock a(std::vector<std::uint64_t>{3, 0, 5});
  const VectorClock b(std::vector<std::uint64_t>{1, 4, 2});
  a.update(b);
  EXPECT_EQ(a, VectorClock(std::vector<std::uint64_t>{3, 4, 5}));
}

TEST(VectorClock, UpdateDominatesBothInputs) {
  VectorClock a(4), b(4);
  a.increment(0);
  a.increment(0);
  b.increment(3);
  VectorClock m = a;
  m.update(b);
  EXPECT_TRUE(a.compare(m) != ClockOrder::kAfter);
  EXPECT_TRUE(b.compare(m) != ClockOrder::kAfter);
  EXPECT_TRUE(b.before(m));
}

TEST(VectorClock, PaperComparisonDefinition) {
  // VT < VT' iff forall i VT[i] <= VT'[i] and exists j VT[j] < VT'[j].
  const VectorClock vt(std::vector<std::uint64_t>{1, 2, 3});
  const VectorClock eq(std::vector<std::uint64_t>{1, 2, 3});
  const VectorClock dom(std::vector<std::uint64_t>{1, 2, 4});
  const VectorClock conc(std::vector<std::uint64_t>{0, 9, 3});
  EXPECT_FALSE(vt.before(eq));
  EXPECT_TRUE(vt.before(dom));
  EXPECT_FALSE(dom.before(vt));
  EXPECT_TRUE(vt.concurrent_with(conc));
}

TEST(VectorClock, UpdateIsIdempotentAndCommutative) {
  const VectorClock a(std::vector<std::uint64_t>{5, 1, 0, 7});
  const VectorClock b(std::vector<std::uint64_t>{2, 8, 0, 3});
  VectorClock ab = a;
  ab.update(b);
  VectorClock ba = b;
  ba.update(a);
  EXPECT_EQ(ab, ba);
  VectorClock again = ab;
  again.update(b);
  EXPECT_EQ(again, ab);
}

TEST(VectorClock, CodecRoundTrip) {
  const VectorClock a(std::vector<std::uint64_t>{0, 42, 7, 1u << 20});
  ByteWriter w;
  a.encode(w);
  ByteReader r(w.bytes());
  const VectorClock back = VectorClock::decode(r);
  EXPECT_EQ(a, back);
  EXPECT_TRUE(r.exhausted());
}

TEST(VectorClock, ToStringFormatsComponents) {
  const VectorClock a(std::vector<std::uint64_t>{1, 0, 3});
  EXPECT_EQ(a.to_string(), "[1,0,3]");
}

}  // namespace
}  // namespace causalmem
