// Proves the AuditInvariants() walks actually catch corruption: test peers
// reach into DataMappingTable / CacheSpaceAllocator, break a representation
// invariant directly, and the audit must abort. Healthy-state audits after
// real mutation sequences must pass.
#include <gtest/gtest.h>

#include "core/cache_space.h"
#include "core/dmt.h"
#include "core/s4d_cache.h"
#include "dmt_test_peer.h"
#include "harness/testbed.h"
#include "sim/engine.h"

namespace s4d::core {

// Friend of the audited allocator (declared in its header); everything here
// exists to corrupt private state on purpose. DmtTestPeer lives in
// dmt_test_peer.h, shared with test_dmt.
struct CacheSpaceTestPeer {
  static void SkewFreeBytes(CacheSpaceAllocator& space, byte_count delta) {
    space.free_bytes_ += delta;
  }
  static void OverlapFreeExtents(CacheSpaceAllocator& space) {
    // Two overlapping free extents — a structural double free.
    space.free_.clear();
    space.free_.emplace(0, 64);
    space.free_.emplace(32, 128);
  }
  static void SkewOwnerCounter(CacheSpaceAllocator& space, int owner,
                               byte_count delta) {
    space.used_by_[static_cast<std::size_t>(owner)] += delta;
  }
};

namespace {

// File ids of a.dat and b.dat.
constexpr FileIndex kA = 0;
constexpr FileIndex kB = 1;

DataMappingTable MakeBusyDmt() {
  DataMappingTable dmt;
  dmt.Insert(kA, 0, 100, 0, false);
  dmt.Insert(kA, 200, 50, 100, true);
  dmt.Insert(kB, 0, 4096, 150, false);
  dmt.Touch(kA, 0, 100);
  dmt.SetDirty(kB, 0, 1024, true);
  dmt.Invalidate(kA, 220, 10);
  return dmt;
}

TEST(DmtAuditTest, HealthyTablePasses) {
  DataMappingTable dmt = MakeBusyDmt();
  dmt.AuditInvariants();  // must not abort
  EXPECT_GT(dmt.entry_count(), 0u);
}

TEST(DmtAuditDeathTest, CatchesOverlappingExtents) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::StretchFirstExtent(dmt, 150);  // first extent now overlaps
  EXPECT_DEATH(dmt.AuditInvariants(), "S4D_CHECK");
}

TEST(DmtAuditDeathTest, CatchesMappedBytesMiscount) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::SkewMappedBytes(dmt, 7);
  EXPECT_DEATH(dmt.AuditInvariants(), "mapped");
}

TEST(DmtAuditDeathTest, CatchesBrokenLruIndex) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::DropLruEntry(dmt);
  EXPECT_DEATH(dmt.AuditInvariants(), "S4D_CHECK");
}

TEST(DmtAuditDeathTest, CatchesDirtyExtentMissingFromIndex) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::DropDirtyIndexEntry(dmt);
  EXPECT_DEATH(dmt.AuditInvariants(), "missing from the dirty index");
}

TEST(DmtAuditDeathTest, CatchesDirtyExtentInCleanLruIndex) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::IndexFirstDirtyExtentAsClean(dmt);  // a.dat [200, 220)
  EXPECT_DEATH(dmt.AuditInvariants(), "listed in the clean LRU index");
}

TEST(DmtAuditDeathTest, CatchesCleanExtentInDirtyIndex) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::IndexFirstExtentAsDirty(dmt);  // a.dat [0, 100) is clean
  EXPECT_DEATH(dmt.AuditInvariants(), "dirty index holds");
}

TEST(DmtAuditDeathTest, CatchesALiveSlotOnTheFreeList) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::FreeLiveSlot(dmt);
  EXPECT_DEATH(dmt.AuditInvariants(), "live or listed twice");
}

TEST(DmtAuditDeathTest, CatchesALeakedSlot) {
  DataMappingTable dmt = MakeBusyDmt();  // the invalidation freed a slot
  DmtTestPeer::LeakFreeSlot(dmt);
  EXPECT_DEATH(dmt.AuditInvariants(), "slab holds");
}

TEST(DmtAuditDeathTest, CatchesAnExtentKeyNamingAnotherEntry) {
  DataMappingTable dmt = MakeBusyDmt();
  DmtTestPeer::CrossExtentSlots(dmt);  // a.dat's 0 names [200, 220)'s slot
  EXPECT_DEATH(dmt.AuditInvariants(), "extent index of file");
}

CacheSpaceAllocator MakeBusySpace() {
  CacheSpaceAllocator space(1 << 20, 4096);
  auto a = space.Allocate(10000);
  auto b = space.Allocate(5000);
  auto c = space.Allocate(60000);
  EXPECT_TRUE(a && b && c);
  space.Free(*b, 5000);
  space.Free(*a + 1000, 2000);  // partial free inside an allocation
  return space;
}

TEST(CacheSpaceAuditTest, HealthyAllocatorPasses) {
  CacheSpaceAllocator space = MakeBusySpace();
  space.AuditInvariants();  // must not abort
  EXPECT_EQ(space.used_bytes() + space.free_bytes(), space.capacity());
}

TEST(CacheSpaceAuditTest, IsAllocatedTracksFreeList) {
  CacheSpaceAllocator space(1 << 16);
  const auto off = space.Allocate(4096);
  ASSERT_TRUE(off.has_value());
  EXPECT_TRUE(space.IsAllocated(*off, 4096));
  EXPECT_TRUE(space.IsAllocated(*off + 100, 1000));  // sub-range
  EXPECT_FALSE(space.IsAllocated(*off, 4097));       // spills into free space
  space.Free(*off, 4096);
  EXPECT_FALSE(space.IsAllocated(*off, 1));
}

TEST(CacheSpaceAuditDeathTest, CatchesFreeBytesMiscount) {
  CacheSpaceAllocator space = MakeBusySpace();
  CacheSpaceTestPeer::SkewFreeBytes(space, 1);
  EXPECT_DEATH(space.AuditInvariants(), "free_bytes");
}

TEST(CacheSpaceAuditDeathTest, CatchesOverlappingFreeExtents) {
  CacheSpaceAllocator space(1 << 20);
  CacheSpaceTestPeer::OverlapFreeExtents(space);
  EXPECT_DEATH(space.AuditInvariants(), "disjoint");
}

// --- partition (owner) accounting ------------------------------------------

CacheSpaceAllocator MakePartitionedSpace() {
  CacheSpaceAllocator space(1 << 20, 4096);
  auto a = space.Allocate(10000);  // pre-tracking bytes -> owner 0
  space.EnablePartitionTracking(2);
  auto b = space.Allocate(60000, /*owner=*/1);
  EXPECT_TRUE(a && b);
  // A partial free inside owner 0's range.
  space.Free(*a + 1000, 2000, /*owner=*/0);
  return space;
}

TEST(CacheSpaceAuditTest, HealthyPartitionedAllocatorPasses) {
  CacheSpaceAllocator space = MakePartitionedSpace();
  space.AuditInvariants();  // must not abort
  EXPECT_EQ(space.used_by(0) + space.used_by(1), space.used_bytes());
}

TEST(CacheSpaceAuditDeathTest, CatchesPerOwnerCounterMiscount) {
  CacheSpaceAllocator space = MakePartitionedSpace();
  CacheSpaceTestPeer::SkewOwnerCounter(space, 1, 512);
  EXPECT_DEATH(space.AuditInvariants(), "used_by");
}

// A DMT extent recording another partition than the one its bytes are
// charged to: that partition maps more than it is charged for.
TEST(S4DCacheAuditDeathTest, CatchesExtentRecordingAnotherPartition) {
  harness::TestbedConfig bed_cfg;
  bed_cfg.file_reservation = 2 * GiB;
  harness::Testbed bed(bed_cfg);
  S4DConfig cfg;
  cfg.cache_capacity = 1 * MiB;
  cfg.policy = AdmissionPolicy::kAlways;
  cfg.enable_rebuilder = false;
  auto cache = bed.MakeS4D(cfg);
  cache->cache_space().EnablePartitionTracking(2);
  cache->Open("f");  // file 0
  bool done = false;
  cache->Write(mpiio::FileRequest{"f", 0, 0, 16 * KiB, 0},
               [&done](SimTime) { done = true; });
  bed.engine().Run();
  ASSERT_TRUE(done);
  ASSERT_EQ(cache->cache_space().used_by(0), 16 * KiB);
  cache->AuditInvariants(/*expect_quiescent=*/true);  // must not abort
  DmtTestPeer::SetFirstExtentOwner(cache->dmt(), 1);
  EXPECT_DEATH(cache->AuditInvariants(), "partition 1 maps 16384 bytes");
}

TEST(EngineAuditTest, HealthyEnginePasses) {
  sim::Engine engine;
  for (int i = 0; i < 64; ++i) {
    engine.ScheduleAfter(1000 * (64 - i), [] {});
  }
  engine.AuditInvariants();
  int steps = 0;
  while (engine.Step()) {
    ++steps;
    engine.AuditInvariants();
  }
  EXPECT_EQ(steps, 64);
}

}  // namespace
}  // namespace s4d::core
