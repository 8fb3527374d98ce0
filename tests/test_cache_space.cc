#include "core/cache_space.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace s4d::core {
namespace {

TEST(CacheSpace, StartsFullyFree) {
  CacheSpaceAllocator alloc(1000);
  EXPECT_EQ(alloc.capacity(), 1000);
  EXPECT_EQ(alloc.free_bytes(), 1000);
  EXPECT_EQ(alloc.used_bytes(), 0);
  EXPECT_EQ(alloc.largest_free_extent(), 1000);
}

TEST(CacheSpace, AllocateFirstFit) {
  CacheSpaceAllocator alloc(1000);
  EXPECT_EQ(alloc.Allocate(100), 0);
  EXPECT_EQ(alloc.Allocate(100), 100);
  EXPECT_EQ(alloc.free_bytes(), 800);
}

TEST(CacheSpace, FailsWhenNoFit) {
  CacheSpaceAllocator alloc(100);
  EXPECT_EQ(alloc.Allocate(60), 0);
  EXPECT_EQ(alloc.Allocate(60), std::nullopt);
  EXPECT_EQ(alloc.Allocate(40), 60);
  EXPECT_EQ(alloc.Allocate(1), std::nullopt);
}

TEST(CacheSpace, FreeCoalescesBothSides) {
  CacheSpaceAllocator alloc(300);
  ASSERT_EQ(alloc.Allocate(100), 0);
  ASSERT_EQ(alloc.Allocate(100), 100);
  ASSERT_EQ(alloc.Allocate(100), 200);
  alloc.Free(0, 100);
  alloc.Free(200, 100);
  EXPECT_EQ(alloc.free_extent_count(), 2u);
  alloc.Free(100, 100);  // bridges both neighbours
  EXPECT_EQ(alloc.free_extent_count(), 1u);
  EXPECT_EQ(alloc.largest_free_extent(), 300);
}

TEST(CacheSpace, PartialFreeOfAllocation) {
  CacheSpaceAllocator alloc(100);
  ASSERT_EQ(alloc.Allocate(100), 0);
  alloc.Free(20, 30);  // free the middle of the allocation
  EXPECT_EQ(alloc.free_bytes(), 30);
  EXPECT_EQ(alloc.Allocate(30), 20);
}

TEST(CacheSpace, ReserveExactRange) {
  CacheSpaceAllocator alloc(1000);
  EXPECT_TRUE(alloc.Reserve(100, 200));
  EXPECT_EQ(alloc.free_bytes(), 800);
  EXPECT_FALSE(alloc.Reserve(150, 100)) << "overlapping reserve must fail";
  EXPECT_FALSE(alloc.Reserve(900, 200)) << "out-of-capacity reserve";
  EXPECT_TRUE(alloc.Reserve(0, 100));
  EXPECT_TRUE(alloc.Reserve(300, 700));
  EXPECT_EQ(alloc.free_bytes(), 0);
  // First-fit allocation skips the reserved holes correctly after frees.
  alloc.Free(100, 200);
  EXPECT_EQ(alloc.Allocate(200), 100);
}

TEST(CacheSpace, FragmentationBlocksLargeAllocation) {
  CacheSpaceAllocator alloc(300);
  ASSERT_EQ(alloc.Allocate(100), 0);
  ASSERT_EQ(alloc.Allocate(100), 100);
  ASSERT_EQ(alloc.Allocate(100), 200);
  alloc.Free(0, 100);
  alloc.Free(200, 100);
  // 200 bytes free but not contiguous.
  EXPECT_EQ(alloc.free_bytes(), 200);
  EXPECT_EQ(alloc.largest_free_extent(), 100);
  EXPECT_EQ(alloc.Allocate(150), std::nullopt);
}

TEST(CacheSpace, OccupancyAndFragmentationGauges) {
  CacheSpaceAllocator alloc(400);
  EXPECT_DOUBLE_EQ(alloc.occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(alloc.fragmentation(), 0.0) << "one free run = no frag";
  ASSERT_EQ(alloc.Allocate(100), 0);
  EXPECT_DOUBLE_EQ(alloc.occupancy(), 0.25);
  EXPECT_DOUBLE_EQ(alloc.fragmentation(), 0.0) << "free space still one run";
  ASSERT_EQ(alloc.Allocate(100), 100);
  ASSERT_EQ(alloc.Allocate(100), 200);
  ASSERT_EQ(alloc.Allocate(100), 300);
  EXPECT_DOUBLE_EQ(alloc.occupancy(), 1.0);
  EXPECT_DOUBLE_EQ(alloc.fragmentation(), 0.0) << "no free space = no frag";
  alloc.Free(0, 100);
  alloc.Free(200, 100);
  // 200 free in two 100-byte runs: half the free space is unreachable by
  // the largest contiguous allocation.
  EXPECT_DOUBLE_EQ(alloc.occupancy(), 0.5);
  EXPECT_DOUBLE_EQ(alloc.fragmentation(), 0.5);
  CacheSpaceAllocator empty(0);
  EXPECT_DOUBLE_EQ(empty.occupancy(), 0.0);
  EXPECT_DOUBLE_EQ(empty.fragmentation(), 0.0);
}

TEST(CacheSpace, SpreadModeRotatesAcrossStripes) {
  // 4 stripes of 100; small allocations must land in distinct stripes.
  CacheSpaceAllocator alloc(400, /*spread_granularity=*/100);
  std::set<byte_count> stripes;
  for (int i = 0; i < 4; ++i) {
    auto offset = alloc.Allocate(10);
    ASSERT_TRUE(offset.has_value());
    stripes.insert(*offset / 100);
  }
  EXPECT_EQ(stripes.size(), 4u) << "allocations must spread over all stripes";
}

TEST(CacheSpace, SpreadModeWrapsAndFills) {
  CacheSpaceAllocator alloc(400, 100);
  // Exhaust the space in small pieces: all must succeed despite rotation.
  byte_count total = 0;
  while (auto offset = alloc.Allocate(10)) {
    total += 10;
    ASSERT_LE(total, 400);
  }
  EXPECT_EQ(total, 400);
  EXPECT_EQ(alloc.free_bytes(), 0);
}

TEST(CacheSpace, SpreadModeLargeAllocationStillFits) {
  CacheSpaceAllocator alloc(400, 100);
  ASSERT_TRUE(alloc.Allocate(10).has_value());   // hint moves to stripe 1
  const auto big = alloc.Allocate(390);          // only fits at offset 10
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(*big, 10);
  EXPECT_EQ(alloc.free_bytes(), 0);
}

TEST(CacheSpace, ZeroCapacity) {
  CacheSpaceAllocator alloc(0);
  EXPECT_EQ(alloc.Allocate(1), std::nullopt);
  EXPECT_EQ(alloc.free_bytes(), 0);
}

// Property: random alloc/free sequence never double-books space.
TEST(CacheSpace, RandomizedNoOverlapInvariant) {
  constexpr byte_count kCapacity = 1 << 16;
  CacheSpaceAllocator alloc(kCapacity);
  Rng rng(77);
  struct Allocation {
    byte_count offset, size;
  };
  std::vector<Allocation> live;
  byte_count live_bytes = 0;

  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng.NextBool(0.6)) {
      const byte_count size = rng.NextInRange(1, 4096);
      if (auto offset = alloc.Allocate(size)) {
        // No overlap with any live allocation.
        for (const auto& a : live) {
          EXPECT_TRUE(*offset + size <= a.offset ||
                      a.offset + a.size <= *offset)
              << "overlap at step " << step;
        }
        EXPECT_GE(*offset, 0);
        EXPECT_LE(*offset + size, kCapacity);
        live.push_back({*offset, size});
        live_bytes += size;
      }
    } else {
      const auto idx = rng.NextBelow(live.size());
      alloc.Free(live[idx].offset, live[idx].size);
      live_bytes -= live[idx].size;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(alloc.used_bytes(), live_bytes);
  }

  for (const auto& a : live) alloc.Free(a.offset, a.size);
  EXPECT_EQ(alloc.free_bytes(), kCapacity);
  EXPECT_EQ(alloc.free_extent_count(), 1u) << "full free must fully coalesce";
}

}  // namespace
}  // namespace s4d::core
