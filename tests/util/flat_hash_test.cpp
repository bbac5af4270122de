#include "util/flat_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace cicero::util {
namespace {

TEST(FlatHashMap, InsertFindErase) {
  FlatHashMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1u), nullptr);

  auto [v, inserted] = m.try_emplace(1u, 10);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 10);
  EXPECT_FALSE(m.try_emplace(1u, 99).second);  // existing value kept
  EXPECT_EQ(*m.find(1u), 10);
  EXPECT_EQ(m.size(), 1u);

  m[2u] = 20;
  EXPECT_EQ(m.at(2u), 20);
  EXPECT_TRUE(m.erase(2u));
  EXPECT_FALSE(m.erase(2u));
  EXPECT_FALSE(m.contains(2u));
  EXPECT_THROW(m.at(2u), std::out_of_range);
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatHashMap, GrowsPastInitialCapacityAndMatchesStdMap) {
  FlatHashMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> ref;
  util::Rng rng(42);
  for (int i = 0; i < 20'000; ++i) {
    const std::uint64_t k = rng.next_below(4'000);  // collisions guaranteed
    switch (rng.next_below(3)) {
      case 0:
        m[k] = k * 3;
        ref[k] = k * 3;
        break;
      case 1: {
        const bool a = m.erase(k);
        const bool b = ref.erase(k) != 0;
        ASSERT_EQ(a, b) << "erase divergence at key " << k;
        break;
      }
      default: {
        const std::uint64_t* v = m.find(k);
        const auto it = ref.find(k);
        ASSERT_EQ(v != nullptr, it != ref.end()) << "find divergence at key " << k;
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
      }
    }
  }
  ASSERT_EQ(m.size(), ref.size());
  std::map<std::uint64_t, std::uint64_t> collected;
  m.for_each([&](std::uint64_t k, std::uint64_t v) { collected[k] = v; });
  EXPECT_EQ(collected, ref);
}

TEST(FlatHashMap, TombstoneSlotsAreRecycled) {
  // Insert/erase the same keys repeatedly: without tombstone recycling or
  // rehash-purging this would grow probe chains unboundedly.
  FlatHashMap<std::uint64_t, int> m;
  for (int round = 0; round < 10'000; ++round) {
    const std::uint64_t k = static_cast<std::uint64_t>(round % 8);
    m[k] = round;
    EXPECT_TRUE(m.erase(k));
  }
  EXPECT_TRUE(m.empty());
  m[1u] = 1;
  EXPECT_EQ(m.at(1u), 1);
}

TEST(FlatHashMap, HeterogeneousStringLookup) {
  FlatHashMap<std::string, int, StringHash> m;
  m.try_emplace(std::string("update.sign"), 1);
  // Lookup by string_view over a *different* buffer: content must match,
  // identity must not matter.
  const std::string other = std::string("update.") + "sign";
  EXPECT_NE(m.find(std::string_view(other)), nullptr);
  EXPECT_TRUE(m.contains(std::string_view("update.sign")));
  EXPECT_FALSE(m.contains(std::string_view("update.verify")));
}

TEST(FlatHashMap, ForEachIsDeterministicForSameHistory) {
  auto build = [] {
    FlatHashMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k) m[k * 17] = static_cast<int>(k);
    for (std::uint64_t k = 0; k < 50; ++k) m.erase(k * 34);
    std::vector<std::uint64_t> order;
    m.for_each([&](std::uint64_t k, int) { order.push_back(k); });
    return order;
  };
  EXPECT_EQ(build(), build());  // same history => same slot order
}

TEST(FlatHashMap, HashSaltPerturbsPlacementButNotContents) {
  auto build = [] {
    FlatHashMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k) m[k * 17] = static_cast<int>(k);
    std::vector<std::uint64_t> order;
    m.for_each([&](std::uint64_t k, int) { order.push_back(k); });
    // Every key still found under the active salt.
    for (std::uint64_t k = 0; k < 100; ++k) EXPECT_TRUE(m.contains(k * 17));
    return order;
  };
  const std::vector<std::uint64_t> base = build();
  std::vector<std::uint64_t> salted;
  {
    ScopedHashSalt guard(0x9E3779B97F4A7C15ULL);
    salted = build();
    { ScopedHashSalt inner(1); }
    EXPECT_EQ(build(), salted);  // a nested scope restores the outer salt
  }
  // Identical contents, different slot order: the salt moved placement —
  // this is what lets the salt sweep (DESIGN.md §13) catch code that
  // leaks iteration order into run output.
  EXPECT_NE(base, salted);
  std::vector<std::uint64_t> a = base;
  std::vector<std::uint64_t> b = salted;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_EQ(build(), base);  // salt restored: historical placement is back
}

TEST(FlatHashSet, InsertContainsErase) {
  FlatHashSet<std::uint32_t> s;
  EXPECT_TRUE(s.insert(7u));
  EXPECT_FALSE(s.insert(7u));
  EXPECT_TRUE(s.contains(7u));
  EXPECT_TRUE(s.erase(7u));
  EXPECT_FALSE(s.contains(7u));
  EXPECT_TRUE(s.empty());
}

TEST(PairKeys, OrderedAndUnordered) {
  EXPECT_EQ(unordered_pair_key(3, 9), unordered_pair_key(9, 3));
  EXPECT_NE(ordered_pair_key(3, 9), ordered_pair_key(9, 3));
  EXPECT_NE(unordered_pair_key(1, 2), unordered_pair_key(1, 3));
  // Distinct pairs must pack to distinct keys.
  std::set<std::uint64_t> keys;
  for (std::uint32_t a = 0; a < 30; ++a) {
    for (std::uint32_t b = 0; b < 30; ++b) keys.insert(ordered_pair_key(a, b));
  }
  EXPECT_EQ(keys.size(), 900u);
}

TEST(FlatHash, MixIsDeterministicAndSpreadsDenseKeys) {
  EXPECT_EQ(hash_mix64(1234), hash_mix64(1234));
  // Dense ids must not collide in the low bits (the table index).
  std::set<std::uint64_t> low_bits;
  for (std::uint64_t i = 0; i < 1024; ++i) low_bits.insert(hash_mix64(i) & 4095);
  EXPECT_GT(low_bits.size(), 800u);  // near-uniform occupancy
}

}  // namespace
}  // namespace cicero::util
