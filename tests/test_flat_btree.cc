#include "common/flat_btree.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"

namespace s4d {

// Breaks the layout on purpose so the audit tests can prove
// AuditInvariants() catches each break.
struct FlatBTreeTestPeer {
  // Leaves ever allocated, in use or pooled.
  template <typename Key>
  static std::size_t AllocatedLeaves(const FlatBTree<Key>& tree) {
    return tree.leaves_.size();
  }
  template <typename Key>
  static void SkewFirstKey(FlatBTree<Key>& tree, Key delta) {
    tree.firsts_[1] += delta;
  }
  template <typename Key>
  static void SwapLeafOrder(FlatBTree<Key>& tree) {
    std::swap(tree.order_[0], tree.order_[1]);
    std::swap(tree.firsts_[0], tree.firsts_[1]);
  }
  template <typename Key>
  static void LeakLeaf(FlatBTree<Key>& tree) {
    tree.free_leaves_.pop_back();
  }
};

namespace {

using Tree = FlatBTree<std::int64_t>;
constexpr std::uint32_t kCap = Tree::kLeafCapacity;

std::vector<std::int64_t> Keys(const Tree& tree) {
  std::vector<std::int64_t> out;
  for (auto it = tree.begin(); it != tree.end(); ++it) out.push_back(it.key());
  return out;
}

TEST(FlatBTree, EmptyTree) {
  Tree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_TRUE(tree.begin() == tree.end());
  EXPECT_TRUE(tree.find(3) == tree.end());
  EXPECT_TRUE(tree.lower_bound(3) == tree.end());
  EXPECT_TRUE(tree.floor(3) == tree.end());
  EXPECT_FALSE(tree.erase(3));
  tree.AuditInvariants();
}

TEST(FlatBTree, InsertFindAndBounds) {
  Tree tree;
  for (std::int64_t k : {50, 10, 30, 20, 40}) {
    EXPECT_TRUE(tree.insert(k, static_cast<Tree::Slot>(k / 10)));
  }
  EXPECT_FALSE(tree.insert(30, 99)) << "duplicate key";
  EXPECT_EQ(tree.find(30).slot(), 3u) << "a duplicate insert changes nothing";
  EXPECT_EQ(Keys(tree), (std::vector<std::int64_t>{10, 20, 30, 40, 50}));
  EXPECT_EQ(tree.lower_bound(25).key(), 30);
  EXPECT_EQ(tree.lower_bound(30).key(), 30);
  EXPECT_EQ(tree.floor(35).key(), 30);
  EXPECT_EQ(tree.floor(30).key(), 30);
  EXPECT_TRUE(tree.floor(9) == tree.end());
  EXPECT_EQ(tree.floor(1000).key(), 50);
  tree.AuditInvariants();
}

TEST(FlatBTree, LeafSplitsAtCapacity) {
  Tree tree;
  // Even keys fill one leaf exactly.
  for (std::uint32_t i = 0; i < kCap; ++i) tree.insert(2 * i, i);
  EXPECT_EQ(tree.leaf_count(), 1u);
  // An odd key inside the full leaf splits it in halves.
  tree.insert(1, 1000);
  EXPECT_EQ(tree.leaf_count(), 2u);
  tree.AuditInvariants();
  EXPECT_EQ(tree.size(), kCap + 1);
  EXPECT_EQ(tree.find(1).slot(), 1000u);
  EXPECT_EQ(tree.find(2 * (kCap - 1)).slot(), kCap - 1);
  // Both halves take further inserts without another split.
  for (std::uint32_t i = 1; i < kCap / 2 - 1; ++i) tree.insert(2 * i + 1, i);
  EXPECT_EQ(tree.leaf_count(), 2u);
  tree.AuditInvariants();
}

TEST(FlatBTree, AscendingInsertsFillLeaves) {
  Tree tree;
  for (std::uint32_t i = 0; i < 4 * kCap; ++i) tree.insert(i, i);
  EXPECT_EQ(tree.leaf_count(), 4u) << "appends keep every leaf full";
  tree.AuditInvariants();
}

TEST(FlatBTree, EraseDownToEmptyAndRecycleLeaves) {
  Tree tree;
  for (std::uint32_t i = 0; i < 8 * kCap; ++i) tree.insert(i, i);
  const std::size_t allocated = FlatBTreeTestPeer::AllocatedLeaves(tree);
  EXPECT_EQ(allocated, 8u);
  // Erase from the middle outwards through iterators, checking that each
  // erase returns the next pair.
  auto it = tree.lower_bound(3 * kCap);
  for (std::uint32_t k = 3 * kCap; k < 8 * kCap; ++k) {
    ASSERT_EQ(it.key(), k);
    it = tree.erase(it);
  }
  EXPECT_TRUE(it == tree.end());
  tree.AuditInvariants();
  for (std::int64_t k = 3 * kCap - 1; k >= 0; --k) {
    ASSERT_TRUE(tree.erase(k)) << k;
    if (k % 17 == 0) tree.AuditInvariants();
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.leaf_count(), 0u);
  EXPECT_TRUE(tree.begin() == tree.end());
  tree.AuditInvariants();
  // Refilling reuses the pooled leaves.
  for (std::uint32_t i = 0; i < 8 * kCap; ++i) tree.insert(i, i);
  EXPECT_EQ(FlatBTreeTestPeer::AllocatedLeaves(tree), allocated);
  tree.AuditInvariants();
}

TEST(FlatBTree, SparseLeavesMerge) {
  Tree tree;
  for (std::uint32_t i = 0; i < 4 * kCap; ++i) tree.insert(i, i);
  // Thin every leaf to a few pairs: neighbours merge as they shrink.
  for (std::uint32_t i = 0; i < 4 * kCap; ++i) {
    if (i % 16 != 0) tree.erase(i);
  }
  EXPECT_EQ(tree.size(), 4 * kCap / 16);
  EXPECT_EQ(tree.leaf_count(), 1u);
  tree.AuditInvariants();
}

// FIFO churn, the LRU index's pattern: append the newest, drop the oldest
// and re-key a random one to the newest. The leaf pool stops growing.
TEST(FlatBTree, QueueChurnReachesASteadyPool) {
  Tree tree;
  Rng rng(7);
  std::uint64_t next = 0;
  std::map<std::int64_t, Tree::Slot> live;
  auto push = [&] {
    const auto key = static_cast<std::int64_t>(next++);
    tree.insert(key, static_cast<Tree::Slot>(key & 0xffff));
    live.emplace(key, static_cast<Tree::Slot>(key & 0xffff));
  };
  for (int i = 0; i < 4096; ++i) push();
  std::size_t pool = 0;
  for (int round = 0; round < 20000; ++round) {
    tree.erase(tree.begin());
    live.erase(live.begin());
    auto victim = live.lower_bound(static_cast<std::int64_t>(
        rng.NextInRange(0, static_cast<std::int64_t>(next))));
    if (victim != live.end()) {
      ASSERT_TRUE(tree.erase(victim->first));
      live.erase(victim);
      push();
    }
    push();
    if (round == 10000) pool = FlatBTreeTestPeer::AllocatedLeaves(tree);
  }
  tree.AuditInvariants();
  EXPECT_EQ(tree.size(), live.size());
  EXPECT_LE(FlatBTreeTestPeer::AllocatedLeaves(tree), pool + 1);
}

// Random inserts, erases (by key and by iterator) and searches, checked
// against std::map after every step.
TEST(FlatBTree, RandomOperationsMatchStdMap) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Tree tree;
    std::map<std::int64_t, Tree::Slot> ref;
    Rng rng(seed);
    const std::int64_t span = seed == 1 ? 200 : 20000;
    for (int step = 0; step < 20000; ++step) {
      const std::int64_t key = rng.NextInRange(-span, span);
      const auto slot = static_cast<Tree::Slot>(rng.NextBelow(1u << 20));
      switch (rng.NextBelow(6)) {
        case 0:
        case 1:
        case 2:
          ASSERT_EQ(tree.insert(key, slot), ref.emplace(key, slot).second)
              << "seed " << seed << " step " << step;
          break;
        case 3:
          ASSERT_EQ(tree.erase(key), ref.erase(key) == 1) << step;
          break;
        case 4: {  // erase a short range through iterators
          auto it = tree.lower_bound(key);
          auto want = ref.lower_bound(key);
          for (int n = 0; n < 5 && want != ref.end(); ++n) {
            ASSERT_EQ(it.key(), want->first) << step;
            it = tree.erase(it);
            want = ref.erase(want);
          }
          ASSERT_EQ(it == tree.end(), want == ref.end()) << step;
          if (want != ref.end()) {
            ASSERT_EQ(it.key(), want->first) << step;
          }
          break;
        }
        default: {
          const auto lower = tree.lower_bound(key);
          const auto want_lower = ref.lower_bound(key);
          ASSERT_EQ(lower == tree.end(), want_lower == ref.end()) << step;
          if (want_lower != ref.end()) {
            ASSERT_EQ(lower.key(), want_lower->first) << step;
            ASSERT_EQ(lower.slot(), want_lower->second) << step;
          }
          const auto want_upper = ref.upper_bound(key);
          const auto floor = tree.floor(key);
          ASSERT_EQ(floor == tree.end(), want_upper == ref.begin()) << step;
          if (want_upper != ref.begin()) {
            ASSERT_EQ(floor.key(), std::prev(want_upper)->first) << step;
          }
          const auto found = tree.find(key);
          ASSERT_EQ(found != tree.end(), ref.count(key) == 1) << step;
        }
      }
      ASSERT_EQ(tree.size(), ref.size());
      if (step % 64 == 0) {
        tree.AuditInvariants();
        auto it = tree.begin();
        for (const auto& [k, s] : ref) {
          ASSERT_EQ(it.key(), k);
          ASSERT_EQ(it.slot(), s);
          ++it;
        }
        ASSERT_TRUE(it == tree.end());
      }
    }
  }
}

Tree TwoLeaves() {
  Tree tree;
  for (std::uint32_t i = 0; i < 2 * kCap; ++i) tree.insert(i, i);
  return tree;
}

TEST(FlatBTreeAuditDeathTest, CatchesAStaleLeafMinimum) {
  Tree tree = TwoLeaves();
  tree.AuditInvariants();
  FlatBTreeTestPeer::SkewFirstKey<std::int64_t>(tree, 1);
  EXPECT_DEATH(tree.AuditInvariants(), "is not the first key");
}

TEST(FlatBTreeAuditDeathTest, CatchesLeavesOutOfOrder) {
  Tree tree = TwoLeaves();
  FlatBTreeTestPeer::SwapLeafOrder(tree);
  EXPECT_DEATH(tree.AuditInvariants(), "leaves out of order");
}

TEST(FlatBTreeAuditDeathTest, CatchesALeakedLeaf) {
  Tree tree = TwoLeaves();
  tree.erase(tree.begin());  // keep the tree non-trivial
  for (std::uint32_t i = kCap; i < 2 * kCap; ++i) tree.erase(i);
  ASSERT_EQ(FlatBTreeTestPeer::AllocatedLeaves(tree), 2u);
  FlatBTreeTestPeer::LeakLeaf(tree);
  EXPECT_DEATH(tree.AuditInvariants(), "leaves allocated");
}

}  // namespace
}  // namespace s4d
