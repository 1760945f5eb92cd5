#include "util/flat_hash.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace wireframe {
namespace {

TEST(PairKeySetTest, InsertContainsErase) {
  PairKeySet set;
  EXPECT_TRUE(set.Insert(42));
  EXPECT_FALSE(set.Insert(42));
  EXPECT_TRUE(set.Contains(42));
  EXPECT_FALSE(set.Contains(43));
  EXPECT_EQ(set.Size(), 1u);
  EXPECT_TRUE(set.Erase(42));
  EXPECT_FALSE(set.Erase(42));
  EXPECT_FALSE(set.Contains(42));
  EXPECT_EQ(set.Size(), 0u);
}

TEST(PairKeySetTest, GrowsThroughRehash) {
  PairKeySet set;
  for (uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(set.Insert(i * 977 + 3));
  EXPECT_EQ(set.Size(), 10000u);
  for (uint64_t i = 0; i < 10000; ++i) {
    EXPECT_TRUE(set.Contains(i * 977 + 3)) << i;
  }
  EXPECT_FALSE(set.Contains(1));
}

TEST(PairKeySetTest, TombstoneReuseKeepsTableUsable) {
  PairKeySet set;
  // Repeated insert/erase cycles must not degrade or grow unboundedly.
  for (int round = 0; round < 200; ++round) {
    for (uint64_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(set.Insert(round * 1000 + i));
    }
    for (uint64_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(set.Erase(round * 1000 + i));
    }
  }
  EXPECT_EQ(set.Size(), 0u);
}

TEST(PairKeySetTest, ForEachVisitsExactlyLiveKeys) {
  PairKeySet set;
  std::set<uint64_t> expected;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    uint64_t key = rng.Next() >> 8;
    if (set.Insert(key)) expected.insert(key);
  }
  // Erase a third.
  int k = 0;
  for (auto it = expected.begin(); it != expected.end();) {
    if (++k % 3 == 0) {
      EXPECT_TRUE(set.Erase(*it));
      it = expected.erase(it);
    } else {
      ++it;
    }
  }
  std::set<uint64_t> got;
  set.ForEach([&](uint64_t key) { got.insert(key); });
  EXPECT_EQ(got, expected);
}

TEST(PairKeySetTest, MatchesStdUnorderedSetUnderRandomOps) {
  PairKeySet set;
  std::unordered_set<uint64_t> reference;
  Rng rng(99);
  for (int op = 0; op < 50000; ++op) {
    const uint64_t key = rng.Uniform(2000);
    switch (rng.Uniform(3)) {
      case 0:
        EXPECT_EQ(set.Insert(key), reference.insert(key).second);
        break;
      case 1:
        EXPECT_EQ(set.Erase(key), reference.erase(key) > 0);
        break;
      default:
        EXPECT_EQ(set.Contains(key), reference.count(key) > 0);
    }
    if (op % 1000 == 0) {
      EXPECT_EQ(set.Size(), reference.size());
    }
  }
}

TEST(PairKeySetTest, ReserveAvoidsLaterGrowth) {
  PairKeySet set;
  set.Reserve(100000);
  for (uint64_t i = 0; i < 100000; ++i) set.Insert(i);
  EXPECT_EQ(set.Size(), 100000u);
}

TEST(NodeMapTest, BracketInsertsAndFinds) {
  NodeMap<int> map;
  map[7] = 42;
  map[9] = 1;
  EXPECT_EQ(map.Size(), 2u);
  ASSERT_NE(map.Find(7), nullptr);
  EXPECT_EQ(*map.Find(7), 42);
  EXPECT_EQ(map.Find(8), nullptr);
  map[7] = 43;  // overwrite, not a new entry
  EXPECT_EQ(map.Size(), 2u);
  EXPECT_EQ(*map.Find(7), 43);
}

TEST(NodeMapTest, DefaultConstructsNewValues) {
  NodeMap<std::vector<NodeId>> map;
  map[3].push_back(1);
  map[3].push_back(2);
  EXPECT_EQ(map[3].size(), 2u);
}

TEST(NodeMapTest, GrowthPreservesEntries) {
  NodeMap<uint32_t> map;
  for (NodeId i = 0; i < 5000; ++i) map[i] = i * 2;
  EXPECT_EQ(map.Size(), 5000u);
  for (NodeId i = 0; i < 5000; ++i) {
    ASSERT_NE(map.Find(i), nullptr) << i;
    EXPECT_EQ(*map.Find(i), i * 2);
  }
}

TEST(NodeMapTest, ForEachVisitsAll) {
  NodeMap<int> map;
  for (NodeId i = 10; i < 20; ++i) map[i] = static_cast<int>(i);
  std::set<NodeId> keys;
  int sum = 0;
  map.ForEach([&](NodeId k, int& v) {
    keys.insert(k);
    sum += v;
  });
  EXPECT_EQ(keys.size(), 10u);
  EXPECT_EQ(sum, 145);
}

TEST(NodeMapTest, MatchesStdUnorderedMapUnderRandomOps) {
  NodeMap<uint32_t> map;
  std::unordered_map<NodeId, uint32_t> reference;
  Rng rng(7);
  for (int op = 0; op < 20000; ++op) {
    const NodeId key = static_cast<NodeId>(rng.Uniform(500));
    if (rng.Bernoulli(0.7)) {
      const uint32_t value = static_cast<uint32_t>(rng.Uniform(1000));
      map[key] = value;
      reference[key] = value;
    } else {
      const uint32_t* found = map.Find(key);
      auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_EQ(found, nullptr);
      } else {
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(*found, it->second);
      }
    }
  }
  EXPECT_EQ(map.Size(), reference.size());
}

}  // namespace
}  // namespace wireframe
