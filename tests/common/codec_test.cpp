#include "causalmem/common/codec.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace causalmem {
namespace {

TEST(Codec, PrimitivesRoundTrip) {
  ByteWriter w;
  w.put<std::uint8_t>(0xAB);
  w.put<std::int32_t>(-123456);
  w.put<std::uint64_t>(0xDEADBEEFCAFEF00DULL);
  w.put<double>(3.14159);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<std::uint8_t>(), 0xAB);
  EXPECT_EQ(r.get<std::int32_t>(), -123456);
  EXPECT_EQ(r.get<std::uint64_t>(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.14159);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, StringsRoundTrip) {
  ByteWriter w;
  w.put_string("");
  w.put_string("hello causal memory");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_string(), "");
  EXPECT_EQ(r.get_string(), "hello causal memory");
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, VectorsRoundTrip) {
  const std::vector<std::uint64_t> v{1, 2, 3, 1ULL << 40};
  ByteWriter w;
  w.put_vector(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get_vector<std::uint64_t>(), v);
}

TEST(Codec, EmptyVectorRoundTrips) {
  ByteWriter w;
  w.put_vector(std::vector<std::uint32_t>{});
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.get_vector<std::uint32_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, RemainingTracksPosition) {
  ByteWriter w;
  w.put<std::uint32_t>(7);
  w.put<std::uint32_t>(9);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.remaining(), 8u);
  (void)r.get<std::uint32_t>();
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(Codec, EnumsRoundTrip) {
  enum class E : std::uint16_t { kA = 7, kB = 900 };
  ByteWriter w;
  w.put(E::kB);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.get<E>(), E::kB);
}

TEST(Codec, VarintsRoundTripAtEveryLength) {
  // Each power of two from 2^0 to 2^63, one below it, and the extremes:
  // every encoded length from one byte to ten.
  std::vector<std::uint64_t> values = {0, UINT64_MAX};
  for (unsigned b = 0; b < 64; ++b) {
    values.push_back(std::uint64_t{1} << b);
    values.push_back((std::uint64_t{1} << b) - 1);
  }
  for (const std::uint64_t v : values) {
    ByteWriter w;
    w.put_varint(v);
    std::size_t bits = 0;
    for (std::uint64_t x = v; x != 0; x >>= 1) ++bits;
    EXPECT_EQ(w.size(), bits == 0 ? 1 : (bits + 6) / 7) << v;
    EXPECT_LE(w.size(), 10u);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.get_varint(), v);
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Codec, VarintBytesAreLeb128) {
  ByteWriter w;
  w.put_varint(0);
  w.put_varint(127);
  w.put_varint(128);
  w.put_varint(300);
  const std::vector<std::byte> want = {
      std::byte{0x00}, std::byte{0x7f}, std::byte{0x80}, std::byte{0x01},
      std::byte{0xac}, std::byte{0x02}};
  EXPECT_EQ(w.bytes(), want);
}

TEST(CodecDeathTest, TruncatedVarintAborts) {
  // Every byte of a varint but the last carries the continuation bit; a
  // buffer that ends on one is cut short.
  for (const std::vector<std::byte>& cut :
       {std::vector<std::byte>{},
        std::vector<std::byte>{std::byte{0x80}},
        std::vector<std::byte>(9, std::byte{0xff})}) {
    ByteReader r(cut);
    EXPECT_DEATH((void)r.get_varint(), "codec under-run \\(varint\\)")
        << cut.size() << " bytes";
  }
}

TEST(CodecDeathTest, VarintOverflowingU64Aborts) {
  // Ten bytes hold 63 bits in their first nine and bit 63 in the tenth;
  // a tenth byte above 1, or an eleventh byte, overflows a u64.
  std::vector<std::byte> wide(9, std::byte{0xff});
  wide.push_back(std::byte{0x02});
  ByteReader r(wide);
  EXPECT_DEATH((void)r.get_varint(), "varint overflows u64");

  std::vector<std::byte> long_form(10, std::byte{0x80});
  long_form.push_back(std::byte{0x00});
  ByteReader r2(long_form);
  EXPECT_DEATH((void)r2.get_varint(), "varint overflows u64");
}

}  // namespace
}  // namespace causalmem
