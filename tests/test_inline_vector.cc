#include "common/inline_vector.h"

#include <gtest/gtest.h>

#include <utility>

namespace s4d {
namespace {

using Pair = std::pair<long, long>;
using Vec = InlineVector<Pair, 4>;

Vec Filled(int n) {
  Vec v;
  for (int i = 0; i < n; ++i) v.emplace_back(i, 10 * i);
  return v;
}

void ExpectHolds(const Vec& v, int n) {
  ASSERT_EQ(v.size(), static_cast<std::size_t>(n));
  int i = 0;
  for (const auto& [a, b] : v) {  // iteration keeps insertion order
    EXPECT_EQ(a, i);
    EXPECT_EQ(b, 10 * i);
    ++i;
  }
  for (int j = 0; j < n; ++j) EXPECT_EQ(v[static_cast<std::size_t>(j)].first, j);
}

TEST(InlineVector, StartsEmptyAndInline) {
  Vec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_FALSE(v.spilled());
  EXPECT_EQ(v.begin(), v.end());
}

TEST(InlineVector, GrowsPastInlineCapacityInOrder) {
  Vec v = Filled(4);
  EXPECT_FALSE(v.spilled());
  ExpectHolds(v, 4);
  v.push_back({4, 40});
  EXPECT_TRUE(v.spilled());
  EXPECT_GE(v.capacity(), 5u);
  ExpectHolds(v, 5);
  for (int i = 5; i < 100; ++i) v.emplace_back(i, 10 * i);
  ExpectHolds(v, 100);
}

TEST(InlineVector, ClearKeepsStorageForReuse) {
  Vec v = Filled(9);
  const std::size_t capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(v.spilled());
  EXPECT_EQ(v.capacity(), capacity);
  for (int i = 0; i < 9; ++i) v.emplace_back(i, 10 * i);
  EXPECT_EQ(v.capacity(), capacity);
  ExpectHolds(v, 9);
}

class InlineVectorStates : public ::testing::TestWithParam<int> {};

TEST_P(InlineVectorStates, CopyLeavesBothEqual) {
  const int n = GetParam();
  const Vec source = Filled(n);
  Vec copy(source);
  ExpectHolds(copy, n);
  ExpectHolds(source, n);
  Vec assigned = Filled(7);
  assigned = source;
  ExpectHolds(assigned, n);
  ExpectHolds(source, n);
}

TEST_P(InlineVectorStates, MoveEmptiesTheSourceForReuse) {
  const int n = GetParam();
  Vec source = Filled(n);
  Vec moved(std::move(source));
  ExpectHolds(moved, n);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(source.spilled());
  source.emplace_back(0, 0);
  ExpectHolds(source, 1);

  Vec assigned = Filled(6);
  assigned = std::move(moved);
  ExpectHolds(assigned, n);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(moved.spilled());
  for (int i = 0; i < 6; ++i) moved.emplace_back(i, 10 * i);
  ExpectHolds(moved, 6);
}

// Inline (0, 1, 4 elements) and spilled (5, 17).
INSTANTIATE_TEST_SUITE_P(InlineAndSpilled, InlineVectorStates,
                         ::testing::Values(0, 1, 4, 5, 17));

TEST(InlineVector, IndexPastTheEndDiesInDebug) {
#ifdef NDEBUG
  GTEST_SKIP() << "S4D_DCHECK bounds indexing only in debug builds";
#else
  Vec v = Filled(3);
  EXPECT_DEATH((void)v[3], "InlineVector index 3 of 3");
  Vec spilled = Filled(6);
  EXPECT_DEATH((void)spilled[6], "InlineVector index 6 of 6");
#endif
}

}  // namespace
}  // namespace s4d
