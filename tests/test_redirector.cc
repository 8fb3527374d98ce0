#include "core/redirector.h"

#include <gtest/gtest.h>

namespace s4d::core {
namespace {

// File ids of the files the tests name.
constexpr FileIndex kF = 0;
constexpr FileIndex kA = 1;
constexpr FileIndex kB = 2;

class RedirectorTest : public ::testing::Test {
 protected:
  RedirectorTest()
      : space_(1 * MiB), redirector_(cdt_, dmt_, space_) {}

  CriticalDataTable cdt_;
  DataMappingTable dmt_;
  CacheSpaceAllocator space_;
  Redirector redirector_;
};

TEST_F(RedirectorTest, NonCriticalWriteMissGoesToDServers) {
  const auto plan = redirector_.PlanWrite(kF, 0, 64 * KiB, /*critical=*/false);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers);
  EXPECT_EQ(plan.segments[0].offset, 0);
  EXPECT_EQ(plan.segments[0].size, 64 * KiB);
  EXPECT_FALSE(plan.admitted);
  EXPECT_EQ(dmt_.entry_count(), 0u);
  EXPECT_EQ(redirector_.stats().write_to_dservers, 1);
}

TEST_F(RedirectorTest, CriticalWriteMissIsAdmitted) {
  const auto plan = redirector_.PlanWrite(kF, 128 * KiB, 16 * KiB, true);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_EQ(plan.segments[0].orig_offset, 128 * KiB);
  EXPECT_TRUE(plan.admitted);
  EXPECT_TRUE(plan.served_fully_by_cache);
  // The mapping exists and is dirty.
  const auto lookup = dmt_.Lookup(kF, 128 * KiB, 16 * KiB);
  ASSERT_TRUE(lookup.fully_mapped());
  EXPECT_TRUE(lookup.mapped[0].dirty);
  EXPECT_EQ(space_.used_bytes(), 16 * KiB);
}

TEST_F(RedirectorTest, MappedWriteHitsCacheEvenIfNotCritical) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);  // admit
  const auto plan = redirector_.PlanWrite(kF, 0, 16 * KiB, false);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_EQ(redirector_.stats().write_cache_hits, 1);
}

TEST_F(RedirectorTest, SubRangeWriteHitUsesTranslatedOffsets) {
  redirector_.PlanWrite(kF, 0, 64 * KiB, true);
  const auto plan = redirector_.PlanWrite(kF, 16 * KiB, 4 * KiB, false);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  // Cache offset is base + 16 KiB into the original allocation.
  const auto lookup = dmt_.Lookup(kF, 0, 64 * KiB);
  const byte_count base = lookup.mapped[0].cache_offset;
  EXPECT_EQ(plan.segments[0].offset, base + 16 * KiB);
}

TEST_F(RedirectorTest, PartialWriteAdmitsGapsWhenCritical) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);  // [0, 16K) cached
  const auto plan = redirector_.PlanWrite(kF, 8 * KiB, 16 * KiB, true);
  EXPECT_TRUE(plan.served_fully_by_cache);
  EXPECT_TRUE(plan.admitted);
  const auto lookup = dmt_.Lookup(kF, 0, 24 * KiB);
  EXPECT_TRUE(lookup.fully_mapped());
  for (const auto& seg : lookup.mapped) EXPECT_TRUE(seg.dirty);
}

TEST_F(RedirectorTest, PartialNonCriticalWriteInvalidatesOverlap) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);
  ASSERT_EQ(dmt_.entry_count(), 1u);
  const auto plan = redirector_.PlanWrite(kF, 8 * KiB, 16 * KiB, false);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers);
  // The overlapping cached half [8K,16K) must be dropped; [0,8K) survives.
  EXPECT_TRUE(dmt_.Lookup(kF, 8 * KiB, 16 * KiB).fully_unmapped());
  EXPECT_TRUE(dmt_.Lookup(kF, 0, 8 * KiB).fully_mapped());
  EXPECT_EQ(redirector_.stats().invalidated_extents, 1);
  EXPECT_EQ(space_.used_bytes(), 8 * KiB);
}

TEST_F(RedirectorTest, WriteAdmissionFailsWhenCacheFullOfDirty) {
  // Fill the 1 MiB cache with dirty data.
  for (int i = 0; i < 16; ++i) {
    redirector_.PlanWrite(kF, i * 64 * KiB, 64 * KiB, true);
  }
  EXPECT_EQ(space_.free_bytes(), 0);
  const auto plan = redirector_.PlanWrite(kF, 10 * MiB, 64 * KiB, true);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers);
  EXPECT_EQ(redirector_.stats().admission_failures, 1);
  EXPECT_EQ(redirector_.stats().evictions, 0) << "dirty data is not evictable";
}

TEST_F(RedirectorTest, WriteAdmissionEvictsCleanLru) {
  for (int i = 0; i < 16; ++i) {
    redirector_.PlanWrite(kF, i * 64 * KiB, 64 * KiB, true);
  }
  // Clean everything (as the Rebuilder would).
  dmt_.SetDirty(kF, 0, 16 * 64 * KiB, false);
  const auto plan = redirector_.PlanWrite(kF, 10 * MiB, 64 * KiB, true);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_TRUE(plan.admitted);
  EXPECT_GE(redirector_.stats().evictions, 1);
  // The oldest mapping was the victim.
  EXPECT_TRUE(dmt_.Lookup(kF, 0, 64 * KiB).fully_unmapped());
}

TEST_F(RedirectorTest, ReadMissGoesToDServersAndMarksLazyFetch) {
  cdt_.Add(CdtKey{kF, 0, 16 * KiB});
  const auto plan = redirector_.PlanRead(kF, 0, 16 * KiB, /*critical=*/true);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers);
  EXPECT_TRUE(plan.lazy_fetch_marked);
  EXPECT_TRUE(cdt_.CacheFlag(CdtKey{kF, 0, 16 * KiB}));
  EXPECT_EQ(redirector_.stats().read_misses, 1);
  EXPECT_EQ(dmt_.entry_count(), 0u) << "reads are cached lazily, not inline";
}

TEST_F(RedirectorTest, NonCriticalReadMissNotMarked) {
  const auto plan = redirector_.PlanRead(kF, 0, 16 * KiB, false);
  EXPECT_FALSE(plan.lazy_fetch_marked);
  EXPECT_FALSE(cdt_.AnyPendingFetch());
}

TEST_F(RedirectorTest, ReadHitServedByCache) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);
  const auto plan = redirector_.PlanRead(kF, 0, 16 * KiB, false);
  ASSERT_EQ(plan.segments.size(), 1u);
  // The freshly-written data is dirty: it exists only in the cache, so the
  // read must be served there even though the model scored it B <= 0.
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_TRUE(plan.served_fully_by_cache);
  EXPECT_EQ(redirector_.stats().read_cache_hits, 1);
}

TEST_F(RedirectorTest, CleanNonCriticalHitBypassesToDServers) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);
  dmt_.SetDirty(kF, 0, 16 * KiB, false);  // as if flushed
  const auto plan = redirector_.PlanRead(kF, 0, 16 * KiB, /*critical=*/false);
  ASSERT_EQ(plan.segments.size(), 1u);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers)
      << "clean data streams better from the HDD array when B <= 0";
  EXPECT_EQ(redirector_.stats().read_clean_bypasses, 1);
  // The mapping is untouched.
  EXPECT_TRUE(dmt_.Lookup(kF, 0, 16 * KiB).fully_mapped());
}

TEST_F(RedirectorTest, CleanCriticalHitStillServedByCache) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);
  dmt_.SetDirty(kF, 0, 16 * KiB, false);
  const auto plan = redirector_.PlanRead(kF, 0, 16 * KiB, /*critical=*/true);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_EQ(redirector_.stats().read_cache_hits, 1);
}

TEST_F(RedirectorTest, PartiallyDirtyHitNeverBypasses) {
  redirector_.PlanWrite(kF, 0, 32 * KiB, true);
  dmt_.SetDirty(kF, 0, 16 * KiB, false);  // half clean, half dirty
  const auto plan = redirector_.PlanRead(kF, 0, 32 * KiB, false);
  EXPECT_GT(plan.cache_bytes(), 0) << "dirty bytes only exist in the cache";
}

TEST_F(RedirectorTest, PartialReadSplitsAcrossSystems) {
  redirector_.PlanWrite(kF, 0, 16 * KiB, true);
  const auto plan = redirector_.PlanRead(kF, 0, 32 * KiB, false);
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.cache_bytes(), 16 * KiB);
  EXPECT_EQ(plan.dserver_bytes(), 16 * KiB);
  EXPECT_EQ(redirector_.stats().read_partial_hits, 1);
}

TEST_F(RedirectorTest, ReadHitRefreshesLru) {
  redirector_.PlanWrite(kA, 0, 64 * KiB, true);
  redirector_.PlanWrite(kB, 0, 64 * KiB, true);
  dmt_.SetDirty(kA, 0, 64 * KiB, false);
  dmt_.SetDirty(kB, 0, 64 * KiB, false);
  // Touch "a" via a cache-served read hit (critical, so no clean-hit
  // bypass); "b" becomes the LRU victim.
  redirector_.PlanRead(kA, 0, 64 * KiB, true);
  const auto victim = dmt_.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->file, kB);
}

TEST(RedirectorPolicy, AlwaysAdmitsNonCritical) {
  CriticalDataTable cdt;
  DataMappingTable dmt;
  CacheSpaceAllocator space(1 * MiB);
  Redirector redirector(cdt, dmt, space, AdmissionPolicy::kAlways);
  const auto plan = redirector.PlanWrite(kF, 0, 16 * KiB, /*critical=*/false);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kCServers);
  EXPECT_TRUE(plan.admitted);
}

TEST(RedirectorPolicy, NeverAdmits) {
  CriticalDataTable cdt;
  DataMappingTable dmt;
  CacheSpaceAllocator space(1 * MiB);
  Redirector redirector(cdt, dmt, space, AdmissionPolicy::kNever);
  const auto plan = redirector.PlanWrite(kF, 0, 16 * KiB, /*critical=*/true);
  EXPECT_EQ(plan.segments[0].target, IoSegment::Target::kDServers);
  EXPECT_EQ(dmt.entry_count(), 0u);
}

}  // namespace
}  // namespace s4d::core
