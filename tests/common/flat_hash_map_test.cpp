// Tests for the vendored open-addressing map that backs the protocol hot
// paths. The suite leans on std::unordered_map as the reference model: a
// long randomized op sequence is replayed against both and compared.
#include "causalmem/common/flat_hash_map.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "causalmem/common/rng.hpp"

namespace causalmem {
namespace {

TEST(FlatHashMapTest, StartsEmpty) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(7), m.end());
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(m.begin(), m.end());
}

TEST(FlatHashMapTest, InsertFindErase) {
  FlatHashMap<std::uint64_t, std::string> m;
  auto [it, fresh] = m.try_emplace(1, "one");
  EXPECT_TRUE(fresh);
  EXPECT_EQ(it->second, "one");
  auto [it2, fresh2] = m.try_emplace(1, "uno");
  EXPECT_FALSE(fresh2);          // existing key: value untouched
  EXPECT_EQ(it2->second, "one");
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.empty());
}

TEST(FlatHashMapTest, SubscriptDefaultConstructs) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_EQ(m[42], 0);
  m[42] = 5;
  EXPECT_EQ(m[42], 5);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMapTest, GrowsPastInitialCapacityAndKeepsAllEntries) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  constexpr std::uint64_t kCount = 10'000;
  for (std::uint64_t i = 0; i < kCount; ++i) m.try_emplace(i * 17, i);
  ASSERT_EQ(m.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto it = m.find(i * 17);
    ASSERT_NE(it, m.end());
    EXPECT_EQ(it->second, i);
  }
}

// Strided keys are the protocol's normal diet (addresses striped by node
// count, page ids). An identity hash under a power-of-two mask would cluster
// them into one long run; the mixer must keep probes short enough that this
// completes instantly.
TEST(FlatHashMapTest, StridedKeysDoNotDegenerate) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 4096; ++i) m.try_emplace(i * 1024, 1);
  EXPECT_EQ(m.size(), 4096u);
  for (std::uint64_t i = 0; i < 4096; ++i) EXPECT_TRUE(m.contains(i * 1024));
}

TEST(FlatHashMapTest, EraseDuringIterationVisitsEveryLiveEntry) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.try_emplace(i, i);
  // Drop the evens through the iterator-erase shape invalidate_cache uses.
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 2 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 50u);
  std::uint64_t visited = 0;
  for (const auto& [k, v] : m) {
    EXPECT_EQ(k % 2, 1u);
    EXPECT_EQ(k, v);
    ++visited;
  }
  EXPECT_EQ(visited, 50u);
}

// Tombstone reuse: a key that hashes behind a tombstoned slot must be found,
// and re-inserting over tombstones must not grow the table unboundedly.
TEST(FlatHashMapTest, TombstoneChurnStaysBounded) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t round = 0; round < 50'000; ++round) {
    m.try_emplace(round % 7, 1);
    m.erase(round % 7);
  }
  EXPECT_TRUE(m.empty());
  for (std::uint64_t k = 0; k < 7; ++k) m.try_emplace(k, 2);
  EXPECT_EQ(m.size(), 7u);
  for (std::uint64_t k = 0; k < 7; ++k) EXPECT_TRUE(m.contains(k));
}

// erase resets the value slot to V{} immediately, so resources held by the
// value (promises, vectors) are released at erase time, not at rehash time.
TEST(FlatHashMapTest, EraseReleasesValueResources) {
  FlatHashMap<std::uint64_t, std::shared_ptr<int>> m;
  auto sp = std::make_shared<int>(9);
  std::weak_ptr<int> wp = sp;
  m.try_emplace(3, std::move(sp));
  ASSERT_FALSE(wp.expired());
  m.erase(3);
  EXPECT_TRUE(wp.expired());
}

TEST(FlatHashMapTest, MoveOnlyValues) {
  FlatHashMap<std::uint64_t, std::unique_ptr<int>> m;
  m.try_emplace(1, std::make_unique<int>(11));
  m[2] = std::make_unique<int>(22);
  ASSERT_NE(m.find(1), m.end());
  EXPECT_EQ(*m.find(1)->second, 11);
  EXPECT_EQ(*m[2], 22);
  auto it = m.find(1);
  (void)m.erase(it);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatHashMapTest, ClearResets) {
  FlatHashMap<std::uint64_t, int> m;
  for (std::uint64_t i = 0; i < 100; ++i) m.try_emplace(i, 1);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  m.try_emplace(5, 7);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(5)->second, 7);
}

// Model check: a long random insert/erase/lookup sequence must agree with
// std::unordered_map at every step and in the final contents.
TEST(FlatHashMapTest, AgreesWithUnorderedMapUnderRandomOps) {
  FlatHashMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(0xC0FFEE);
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t key = rng.next_below(512) * 31;  // strided, colliding
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // insert-if-absent
        const std::uint64_t val = rng.next();
        flat.try_emplace(key, val);
        ref.try_emplace(key, val);
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      }
      default: {  // lookup
        auto fit = flat.find(key);
        auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    auto it = flat.find(k);
    ASSERT_NE(it, flat.end());
    EXPECT_EQ(it->second, v);
  }
  std::size_t flat_count = 0;
  for (const auto& kv : flat) {
    EXPECT_EQ(ref.at(kv.first), kv.second);
    ++flat_count;
  }
  EXPECT_EQ(flat_count, ref.size());
}

}  // namespace
}  // namespace causalmem
