#include "core/dmt.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dmt_test_peer.h"
#include "table_oracles.h"

namespace s4d::core {
namespace {

// File ids. A volatile table never reads names, so these need none.
constexpr FileIndex kF = 0;
constexpr FileIndex kA = 1;
constexpr FileIndex kB = 2;

// Every dirty extent, snapshotted as the flush pass's runs hold them (file
// order, no byte budget).
std::vector<DirtyRange> DirtySnapshot(const DataMappingTable& dmt) {
  constexpr byte_count kAll = std::numeric_limits<byte_count>::max();
  std::vector<DirtyRange> out;
  for (DirtyRun& run : dmt.CollectDirtyRuns(kAll, kAll)) {
    for (DirtyRange& seg : run.segments) out.push_back(std::move(seg));
  }
  return out;
}

TEST(Dmt, EmptyLookup) {
  DataMappingTable dmt;
  const auto result = dmt.Lookup(kF, 0, 100);
  EXPECT_TRUE(result.mapped.empty());
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].first, 0);
  EXPECT_EQ(result.gaps[0].second, 100);
  EXPECT_TRUE(result.fully_unmapped());
  EXPECT_FALSE(result.fully_mapped());
}

TEST(Dmt, InsertAndExactLookup) {
  DataMappingTable dmt;
  dmt.Insert(kF, 1000, 500, 0, /*dirty=*/true);
  const auto result = dmt.Lookup(kF, 1000, 500);
  ASSERT_TRUE(result.fully_mapped());
  ASSERT_EQ(result.mapped.size(), 1u);
  EXPECT_EQ(result.mapped[0].orig_begin, 1000);
  EXPECT_EQ(result.mapped[0].orig_end, 1500);
  EXPECT_EQ(result.mapped[0].cache_offset, 0);
  EXPECT_TRUE(result.mapped[0].dirty);
  EXPECT_EQ(dmt.mapped_bytes(), 500);
  EXPECT_EQ(dmt.dirty_bytes(), 500);
}

TEST(Dmt, SubRangeLookupTranslatesCacheOffset) {
  DataMappingTable dmt;
  dmt.Insert(kF, 1000, 500, 8000, false);
  const auto result = dmt.Lookup(kF, 1200, 100);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 8200);
}

TEST(Dmt, PartialOverlapYieldsMappedAndGaps) {
  DataMappingTable dmt;
  dmt.Insert(kF, 100, 100, 0, false);
  dmt.Insert(kF, 300, 100, 100, false);
  const auto result = dmt.Lookup(kF, 0, 500);
  ASSERT_EQ(result.mapped.size(), 2u);
  ASSERT_EQ(result.gaps.size(), 3u);
  EXPECT_EQ(result.gaps[0], (std::pair<byte_count, byte_count>{0, 100}));
  EXPECT_EQ(result.gaps[1], (std::pair<byte_count, byte_count>{200, 300}));
  EXPECT_EQ(result.gaps[2], (std::pair<byte_count, byte_count>{400, 500}));
}

TEST(Dmt, FilesAreIndependent) {
  DataMappingTable dmt;
  dmt.Insert(kA, 0, 100, 0, false);
  EXPECT_TRUE(dmt.Lookup(kB, 0, 100).fully_unmapped());
}

TEST(Dmt, InvalidateSplitsBoundaries) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 300, 0, true);
  const auto removed = dmt.Invalidate(kF, 100, 100);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].orig_begin, 100);
  EXPECT_EQ(removed[0].orig_end, 200);
  EXPECT_EQ(removed[0].cache_offset, 100);
  EXPECT_TRUE(removed[0].dirty);
  // Left and right halves survive with translated cache offsets.
  const auto left = dmt.Lookup(kF, 0, 100);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_EQ(left.mapped[0].cache_offset, 0);
  const auto right = dmt.Lookup(kF, 200, 100);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_EQ(right.mapped[0].cache_offset, 200);
  EXPECT_TRUE(dmt.Lookup(kF, 100, 100).fully_unmapped());
  EXPECT_EQ(dmt.mapped_bytes(), 200);
  EXPECT_EQ(dmt.dirty_bytes(), 200);
}

TEST(Dmt, SetDirtyAndCleanAdjustCounters) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, false);
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  dmt.SetDirty(kF, 0, 50, true);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
  dmt.SetDirty(kF, 0, 100, true);
  EXPECT_EQ(dmt.dirty_bytes(), 100);
  dmt.SetDirty(kF, 25, 50, false);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
}

TEST(Dmt, EvictLruCleanPrefersOldest) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, false);
  dmt.Insert(kF, 100, 100, 100, false);
  dmt.Insert(kF, 200, 100, 200, false);
  dmt.Touch(kF, 0, 100);  // entry 0 becomes most recent
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100) << "second-inserted is now LRU";
  EXPECT_EQ(dmt.entry_count(), 2u);
}

TEST(Dmt, EvictSkipsDirty) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  dmt.Insert(kF, 100, 100, 100, false);
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100);
  EXPECT_EQ(dmt.EvictLruClean(), std::nullopt) << "only dirty data remains";
}

TEST(Dmt, CollectDirtyRunsReturnsSnapshotsWithVersions) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 500, true);
  dmt.Insert(kF, 200, 100, 600, false);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_EQ(runs[0].segments.size(), 1u);
  const DirtyRange& dirty = runs[0].segments[0];
  EXPECT_EQ(dirty.orig_begin, 0);
  EXPECT_EQ(dirty.cache_offset, 500);
  EXPECT_GT(dirty.version, 0u);
}

TEST(Dmt, CollectDirtyRunsCoalescesAdjacent) {
  DataMappingTable dmt;
  // Three adjacent dirty extents with scattered cache offsets, then a gap,
  // then another dirty extent.
  dmt.Insert(kF, 0, 100, 500, true);
  dmt.Insert(kF, 100, 100, 900, true);
  dmt.Insert(kF, 200, 100, 100, true);
  dmt.Insert(kF, 400, 50, 700, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].orig_begin, 0);
  EXPECT_EQ(runs[0].orig_end, 300);
  ASSERT_EQ(runs[0].segments.size(), 3u);
  EXPECT_EQ(runs[0].segments[1].cache_offset, 900);
  EXPECT_EQ(runs[1].orig_begin, 400);
  EXPECT_EQ(runs[1].segments.size(), 1u);
}

TEST(Dmt, CollectDirtyRunsSkipsCleanNeighbours) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  dmt.Insert(kF, 100, 100, 100, false);  // clean: breaks the run
  dmt.Insert(kF, 200, 100, 200, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].orig_end, 100);
  EXPECT_EQ(runs[1].orig_begin, 200);
}

TEST(Dmt, CollectDirtyRunsRespectsRunCap) {
  DataMappingTable dmt;
  for (int i = 0; i < 10; ++i) {
    dmt.Insert(kF, i * 100, 100, i * 100, true);
  }
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 250);
  // 1000 contiguous dirty bytes in runs of <= 250.
  ASSERT_GE(runs.size(), 4u);
  byte_count total = 0;
  for (const auto& run : runs) {
    EXPECT_LE(run.length(), 250);
    total += run.length();
  }
  EXPECT_EQ(total, 1000);
}

TEST(Dmt, CollectDirtyRunsRespectsTotalBudget) {
  DataMappingTable dmt;
  for (int i = 0; i < 10; ++i) {
    dmt.Insert(kF, i * 1000, 100, i * 100, true);  // non-adjacent
  }
  const auto runs = dmt.CollectDirtyRuns(350, 1 << 20);
  // Stops once ~350 bytes are collected (4 x 100-byte runs).
  EXPECT_EQ(runs.size(), 4u);
}

TEST(Dmt, CollectDirtyRunsSpansFiles) {
  DataMappingTable dmt;
  dmt.Insert(kA, 0, 100, 0, true);
  dmt.Insert(kB, 0, 100, 100, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].file, runs[1].file);
}

// A run holding an in-flight extent is not returned, but its bytes still
// count toward the budget: the runs returned are the full collection's
// in-flight-free runs, whatever the in-flight set.
TEST(Dmt, CollectDirtyRunsSkipsInFlightRunButSpendsItsBudget) {
  DataMappingTable dmt;
  dmt.Insert(kA, 0, 100, 0, true);      // A
  dmt.Insert(kA, 200, 100, 100, true);  // B1, B2, B3: one coalesced run
  dmt.Insert(kA, 300, 100, 200, true);
  dmt.Insert(kA, 400, 100, 300, true);
  dmt.Insert(kB, 0, 100, 400, true);  // C
  const auto all = dmt.CollectDirtyRuns(350, 1 << 20);
  // B straddles the 350-byte budget: it starts at 100 bytes and ends at
  // 400, so the walk stops before file b.
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].orig_begin, 200);
  EXPECT_EQ(all[1].orig_end, 500);

  // B2 in flight: B1 and B3 do not flush on their own, and C stays past
  // the budget B still spends.
  dmt.BeginFlush(all[1].segments[1].key());
  const auto runs = dmt.CollectDirtyRuns(350, 1 << 20);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].file, kA);
  EXPECT_EQ(runs[0].orig_begin, 0);
  EXPECT_EQ(runs[0].orig_end, 100);
}

TEST(Dmt, ReDirtiedExtentIsCollectedWhileOldVersionIsInFlight) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  const auto first = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(first.size(), 1u);
  dmt.BeginFlush(first[0].segments[0].key());
  EXPECT_TRUE(dmt.CollectDirtyRuns(1 << 20, 1 << 20).empty());

  dmt.SetDirty(kF, 0, 100, true);  // a write hit: same extent, new version
  const auto again = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].orig_begin, 0);
  EXPECT_GT(again[0].segments[0].version, first[0].segments[0].version);
}

TEST(Dmt, MarkCleanIfVersionMatches) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  const auto dirty = DirtySnapshot(dmt);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_TRUE(dmt.MarkCleanIfVersion(kF, 0, 100, dirty[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  EXPECT_FALSE(dmt.MarkCleanIfVersion(kF, 0, 100, dirty[0].version))
      << "already clean";
}

TEST(Dmt, MarkCleanFailsAfterRedirtying) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  const auto snapshot = DirtySnapshot(dmt);
  // A write races the in-flight flush and re-dirties the extent.
  dmt.SetDirty(kF, 0, 100, true);
  EXPECT_FALSE(dmt.MarkCleanIfVersion(kF, 0, 100, snapshot[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 100) << "racing write's dirtiness preserved";
}

TEST(Dmt, MarkCleanFailsAfterSplit) {
  DataMappingTable dmt;
  dmt.Insert(kF, 0, 100, 0, true);
  const auto snapshot = DirtySnapshot(dmt);
  (void)dmt.Invalidate(kF, 40, 20);
  EXPECT_FALSE(dmt.MarkCleanIfVersion(kF, 0, 100, snapshot[0].version));
}

TEST(Dmt, CoverageEpochMovesOnlyWhenMappedCoverageChanges) {
  DataMappingTable dmt;
  std::uint64_t epoch = dmt.coverage_epoch();
  auto moved = [&] {
    const bool m = dmt.coverage_epoch() != epoch;
    epoch = dmt.coverage_epoch();
    return m;
  };
  dmt.Insert(kF, 0, 100, 0, false);
  dmt.Insert(kF, 200, 100, 100, true);
  EXPECT_TRUE(moved());
  dmt.SetDirty(kF, 20, 10, true);  // splits and dirties
  dmt.SetDirty(kF, 0, 100, false);
  dmt.Touch(kF, 0, 300);
  EXPECT_FALSE(moved());
  (void)dmt.Invalidate(kF, 100, 100);  // nothing mapped there
  EXPECT_FALSE(moved());
  (void)dmt.Invalidate(kF, 290, 20);
  EXPECT_TRUE(moved());
  ASSERT_TRUE(dmt.EvictLruClean().has_value());
  EXPECT_TRUE(moved());
  while (dmt.EvictLruClean().has_value()) EXPECT_TRUE(moved());
  EXPECT_FALSE(moved()) << "the failed eviction (only dirty data left)";
  EXPECT_EQ(dmt.mapped_bytes(), dmt.dirty_bytes());
}

TEST(Dmt, AllExtentsEnumeratesEverything) {
  DataMappingTable dmt;
  dmt.Insert(kA, 0, 100, 0, true);
  dmt.Insert(kB, 50, 25, 100, false);
  const auto all = dmt.AllExtents();
  EXPECT_EQ(all.size(), 2u);
}

// --- persistence -----------------------------------------------------------

class DmtPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("s4d_dmt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "dmt.db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<kv::KvStore> OpenStore() {
    kv::Options options;
    options.sync_writes = false;
    auto store = kv::KvStore::Open(path_, options);
    EXPECT_TRUE(store.ok());
    return std::move(*store);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(DmtPersistenceTest, RoundTripsThroughStore) {
  {
    auto store = OpenStore();
    FileTable files;
    DataMappingTable dmt(store.get(), &files);
    dmt.Insert(files.Intern("data/file1"), 0, 16384, 0, true);
    dmt.Insert(files.Intern("data/file1"), 32768, 16384, 16384, false);
    dmt.Insert(files.Intern("data/file2"), 100, 50, 32768, false);
  }
  auto store = OpenStore();
  FileTable files;
  DataMappingTable recovered(store.get(), &files);
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 3u);
  EXPECT_EQ(recovered.mapped_bytes(), 16384 + 16384 + 50);
  EXPECT_EQ(recovered.dirty_bytes(), 16384);
  const auto result =
      recovered.Lookup(files.Intern("data/file1"), 32768, 16384);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 16384);
  EXPECT_FALSE(result.mapped[0].dirty);
}

TEST_F(DmtPersistenceTest, MutationsArePersisted) {
  {
    auto store = OpenStore();
    FileTable files;
    DataMappingTable dmt(store.get(), &files);
    const FileIndex f = files.Intern("f");
    dmt.Insert(f, 0, 1000, 0, true);
    (void)dmt.Invalidate(f, 200, 100);  // split + removal
    dmt.SetDirty(f, 0, 200, false);
  }
  auto store = OpenStore();
  FileTable files;
  DataMappingTable recovered(store.get(), &files);
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  const FileIndex f = files.Intern("f");
  EXPECT_TRUE(recovered.Lookup(f, 200, 100).fully_unmapped());
  const auto left = recovered.Lookup(f, 0, 200);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_FALSE(left.mapped[0].dirty);
  const auto right = recovered.Lookup(f, 300, 700);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_TRUE(right.mapped[0].dirty);
  EXPECT_EQ(right.mapped[0].cache_offset, 300);
}

TEST_F(DmtPersistenceTest, EvictionRemovesPersistedRecord) {
  {
    auto store = OpenStore();
    FileTable files;
    DataMappingTable dmt(store.get(), &files);
    dmt.Insert(files.Intern("f"), 0, 100, 0, false);
    ASSERT_TRUE(dmt.EvictLruClean().has_value());
  }
  auto store = OpenStore();
  FileTable files;
  DataMappingTable recovered(store.get(), &files);
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 0u);
}

// Recovery loads every record or none: a store with one bad record leaves
// the table empty, whatever came before it.
TEST_F(DmtPersistenceTest, FailedLoadLeavesTableEmpty) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put("D|a|0", "16384 0 1 3").ok());
  ASSERT_TRUE(store->Put("D|b|0", "not a record").ok());
  FileTable files;
  DataMappingTable dmt(store.get(), &files);
  EXPECT_EQ(dmt.LoadFromStore().code(), StatusCode::kCorruption);
  EXPECT_EQ(dmt.entry_count(), 0u);
  EXPECT_EQ(dmt.mapped_bytes(), 0);
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  EXPECT_TRUE(dmt.AllExtents().empty());
  dmt.AuditInvariants();
}

// Loads a store holding one good record and `records`; returns the status
// and checks that a failed load left the table empty.
Status LoadWith(kv::KvStore& store,
                const std::vector<std::pair<std::string, std::string>>&
                    records) {
  EXPECT_TRUE(store.Put("D|good|0", "4096 0 0 1").ok());
  for (const auto& [key, value] : records) {
    EXPECT_TRUE(store.Put(key, value).ok());
  }
  FileTable files;
  DataMappingTable dmt(&store, &files);
  const Status status = dmt.LoadFromStore();
  if (!status.ok()) {
    EXPECT_EQ(dmt.entry_count(), 0u);
    EXPECT_EQ(dmt.mapped_bytes(), 0);
  }
  dmt.AuditInvariants();
  return status;
}

TEST_F(DmtPersistenceTest, RejectsEmptyExtent) {
  auto store = OpenStore();
  // end <= begin would make mapped_bytes fall.
  EXPECT_EQ(LoadWith(*store, {{"D|f|100", "50 8192 0 2"}}).code(),
            StatusCode::kCorruption);
  std::filesystem::remove(path_);
  store = OpenStore();
  EXPECT_EQ(LoadWith(*store, {{"D|f|100", "100 8192 0 2"}}).code(),
            StatusCode::kCorruption);
}

TEST_F(DmtPersistenceTest, RejectsOverlappingRecords) {
  auto store = OpenStore();
  EXPECT_EQ(LoadWith(*store,
                     {{"D|f|0", "8192 8192 0 2"}, {"D|f|4096", "12288 16384 0 3"}})
                .code(),
            StatusCode::kCorruption);
  // Two keys naming one offset (a leading zero) overlap too.
  std::filesystem::remove(path_);
  store = OpenStore();
  EXPECT_EQ(LoadWith(*store,
                     {{"D|f|4096", "8192 8192 0 2"}, {"D|f|04096", "8192 16384 0 3"}})
                .code(),
            StatusCode::kCorruption);
  // Touching records and the same range in two files are fine.
  std::filesystem::remove(path_);
  store = OpenStore();
  EXPECT_TRUE(LoadWith(*store,
                       {{"D|f|0", "4096 8192 0 2"},
                        {"D|f|4096", "8192 12288 1 3"},
                        {"D|g|0", "4096 16384 0 4"}})
                  .ok());
}

TEST_F(DmtPersistenceTest, RejectsSentinelVersion) {
  // The largest version is the "not under flush" mark: an extent carrying
  // it would never be collected for flushing.
  for (const char* version : {"18446744073709551615", "-1", "-2"}) {
    std::filesystem::remove(path_);
    auto store = OpenStore();
    EXPECT_EQ(LoadWith(*store,
                       {{"D|f|0", std::string("4096 8192 1 ") + version}})
                  .code(),
              StatusCode::kCorruption)
        << version;
  }
}

TEST_F(DmtPersistenceTest, RejectsTrailingGarbage) {
  for (const char* value :
       {"4096 8192 1 3 7", "4096 8192 1 3x", "4096 8192 2 3", "4096 -1 0 3",
        "4096 8192 1", "4096  8192 1 3"}) {
    std::filesystem::remove(path_);
    auto store = OpenStore();
    EXPECT_EQ(LoadWith(*store, {{"D|f|0", value}}).code(),
              StatusCode::kCorruption)
        << value;
  }
  for (const char* key : {"D|f|12x", "D|f|-4096", "D|f|"}) {
    std::filesystem::remove(path_);
    auto store = OpenStore();
    EXPECT_EQ(LoadWith(*store, {{key, "8192 8192 0 3"}}).code(),
              StatusCode::kCorruption)
        << key;
  }
}

// --- dirty-extent index ------------------------------------------------------
//
// CollectDirtyRuns and SummarizeDirtyAges walk only the dirty-extent index.
// The references below are the full-table walks they replaced, run over a
// scan of every entry. Under a seeded fuzz of every mutation that touches
// the index (splits of dirty extents and reloads from the store included)
// both must agree exactly. Given a random in-flight subset, CollectDirtyRuns
// must also return exactly what collect-then-skip returns.

using TableScan = std::vector<DmtTestPeer::ScannedExtent>;

DataMappingTable::DirtyAgeSummary ReferenceDirtyAges(const TableScan& scan,
                                                     SimTime now) {
  DataMappingTable::DirtyAgeSummary summary;
  constexpr std::size_t kMaxSample = 512;
  std::vector<SimTime> sample;
  std::uint64_t stride = 1;
  std::uint64_t index = 0;
  long double total = 0.0L;
  for (const DmtTestPeer::ScannedExtent& e : scan) {
    if (!e.dirty) continue;
    const SimTime age = now > e.dirty_since ? now - e.dirty_since : 0;
    ++summary.dirty_extents;
    summary.oldest = std::max(summary.oldest, age);
    total += static_cast<long double>(age);
    if (index++ % stride == 0) {
      sample.push_back(age);
      if (sample.size() == kMaxSample) {
        std::size_t keep = 0;
        for (std::size_t k = 0; k < sample.size(); k += 2) {
          sample[keep++] = sample[k];
        }
        sample.resize(keep);
        stride *= 2;
      }
    }
  }
  if (summary.dirty_extents > 0) {
    summary.mean = static_cast<SimTime>(
        total / static_cast<long double>(summary.dirty_extents));
  }
  if (!sample.empty()) {
    auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
    std::nth_element(sample.begin(), mid, sample.end());
    summary.p50 = *mid;
  }
  return summary;
}

// The Rebuilder's flush pass before the DMT learned the in-flight set:
// collect every run, then skip each run holding an in-flight extent.
std::vector<DirtyRun> SkipInFlight(
    std::vector<DirtyRun> runs, const std::vector<DirtyExtentKey>& in_flight) {
  std::erase_if(runs, [&](const DirtyRun& run) {
    return std::any_of(run.segments.begin(), run.segments.end(),
                       [&](const DirtyRange& seg) {
                         return std::find(in_flight.begin(), in_flight.end(),
                                          seg.key()) != in_flight.end();
                       });
  });
  return runs;
}

std::string RunsText(const std::vector<DirtyRun>& runs) {
  std::ostringstream out;
  for (const DirtyRun& run : runs) {
    out << run.file << "[" << run.orig_begin << "," << run.orig_end << "):";
    for (const DirtyRange& seg : run.segments) {
      out << " " << seg.file << "[" << seg.orig_begin << "," << seg.orig_end
          << ")@" << seg.cache_offset << "v" << seg.version;
    }
    out << "\n";
  }
  return out.str();
}

TEST_F(DmtPersistenceTest, DirtyIndexWalksMatchFullScanUnderFuzz) {
  constexpr byte_count kSpan = 16 * 1024;  // per-file offset range
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::filesystem::remove(path_);
    auto store = OpenStore();
    FileTable names;
    const FileIndex files[] = {names.Intern("a"), names.Intern("b"),
                               names.Intern("c")};
    Rng rng(seed);
    SimTime now = 0;
    auto dmt = std::make_unique<DataMappingTable>(store.get(), &names);
    dmt->SetClock([&now] { return now; });
    byte_count next_cache = 0;
    std::int64_t most_dirty = 0;
    // In-flight subsets draw from their own stream, so the table churn is
    // the same as without them.
    Rng busy_rng(seed + 100);
    std::vector<DirtyExtentKey> kept_in_flight;
    std::int64_t busy_runs = 0;
    for (int step = 0; step < 4000; ++step) {
      now += rng.NextInRange(0, 1000);
      const FileIndex file = files[rng.NextBelow(3)];
      const byte_count offset = rng.NextInRange(0, kSpan - 1);
      const byte_count size = rng.NextBool(0.95) ? rng.NextInRange(1, 32)
                                                 : rng.NextInRange(33, 1024);
      switch (rng.NextBelow(10)) {
        case 0:
        case 1:
        case 2: {  // admission: map the gaps of a range
          const bool dirty = rng.NextBool(0.8);
          for (const auto& [gap_begin, gap_end] :
               dmt->Lookup(file, offset, size).gaps) {
            dmt->Insert(file, gap_begin, gap_end - gap_begin, next_cache,
                        dirty);
            next_cache += gap_end - gap_begin;
          }
          break;
        }
        case 3:  // write hit: splits at both ends, dirties the middle
          dmt->SetDirty(file, offset, size, true);
          break;
        case 4:
          dmt->SetDirty(file, offset, size, false);
          break;
        case 5: {  // flush completion, sometimes after a racing write
          const std::vector<DirtyRange> dirty = DirtySnapshot(*dmt);
          if (dirty.empty()) break;
          const DirtyRange& d = dirty[rng.NextBelow(dirty.size())];
          const std::uint64_t version =
              rng.NextBool(0.8) ? d.version : d.version + 1;
          (void)dmt->MarkCleanIfVersion(d.file, d.orig_begin, d.orig_end,
                                        version);
          break;
        }
        case 6:  // non-admitted write: splits dirty extents, removes middle
          (void)dmt->Invalidate(file, offset, size);
          break;
        case 7:
          if (rng.NextBool(0.5)) {
            (void)dmt->EvictLruClean();
          } else {
            (void)dmt->EvictLruCleanIf([](const RemovedExtent& e) {
              return e.orig_begin % 2 == 0;
            });
          }
          break;
        default:
          if (rng.NextBool(0.05)) {  // restart from the persisted records
            dmt = std::make_unique<DataMappingTable>(store.get(), &names);
            dmt->SetClock([&now] { return now; });
            ASSERT_TRUE(dmt->LoadFromStore().ok());
            // A restarted cache has no flush in flight.
            kept_in_flight.clear();
          } else {
            dmt->Touch(file, offset, size);
          }
      }
      // Index damage persists, so checking every fourth step still catches
      // it, at a quarter of the cost.
      if (step % 4 != 3) continue;
      dmt->AuditInvariants();
      const TableScan scan = DmtTestPeer::Scan(*dmt);
      const byte_count budget = rng.NextInRange(1, 16 * 1024);
      const byte_count run_cap = rng.NextInRange(1, 1024);
      const std::vector<DirtyRun> want_runs =
          ReferenceDirtyRuns(scan, budget, run_cap);
      // The flushes begun at the previous check are still in flight: their
      // marks rode this check's splits, re-dirties and removals. With none
      // kept, this is the full collection.
      ASSERT_EQ(RunsText(dmt->CollectDirtyRuns(budget, run_cap)),
                RunsText(SkipInFlight(want_runs, kept_in_flight)))
          << "seed " << seed << " step " << step;
      // A random in-flight subset: keys kept from earlier checks (their
      // extents may since have been re-dirtied, split or removed) and some
      // of the current dirty extents. The rest of the kept flushes end.
      std::vector<DirtyExtentKey> keys;
      for (const DirtyExtentKey& key : kept_in_flight) {
        if (busy_rng.NextBool(0.5)) {
          keys.push_back(key);
        } else {
          dmt->EndFlush(key);
        }
      }
      for (const DmtTestPeer::ScannedExtent& e : scan) {
        if (e.dirty && busy_rng.NextBool(0.2)) {
          const DirtyExtentKey key{e.file, e.begin, e.version};
          // The Rebuilder never flushes an extent already in flight.
          if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
          keys.push_back(key);
          dmt->BeginFlush(key);
        }
      }
      kept_in_flight = keys;
      const std::vector<DirtyRun> want_free = SkipInFlight(want_runs, keys);
      busy_runs +=
          static_cast<std::int64_t>(want_runs.size() - want_free.size());
      ASSERT_EQ(RunsText(dmt->CollectDirtyRuns(budget, run_cap)),
                RunsText(want_free))
          << "seed " << seed << " step " << step;
      const auto ages = dmt->SummarizeDirtyAges(now);
      const auto want = ReferenceDirtyAges(scan, now);
      ASSERT_EQ(ages.dirty_extents, want.dirty_extents) << "step " << step;
      ASSERT_EQ(ages.oldest, want.oldest) << "step " << step;
      ASSERT_EQ(ages.mean, want.mean) << "step " << step;
      ASSERT_EQ(ages.p50, want.p50) << "step " << step;
      most_dirty = std::max(most_dirty, ages.dirty_extents);
    }
    // Enough dirty extents to exercise the p50 sample's decimation.
    EXPECT_GT(most_dirty, 512) << "seed " << seed;
    EXPECT_GT(busy_runs, 100) << "seed " << seed;
  }
}

TEST_F(DmtPersistenceTest, FileNamesWithSeparatorsRoundTrip) {
  {
    auto store = OpenStore();
    FileTable files;
    DataMappingTable dmt(store.get(), &files);
    dmt.Insert(files.Intern("weird|name|with|pipes"), 10, 20, 0, true);
  }
  auto store = OpenStore();
  FileTable files;
  DataMappingTable recovered(store.get(), &files);
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_TRUE(recovered.Lookup(files.Intern("weird|name|with|pipes"), 10, 20)
                  .fully_mapped());
}

// --- clean LRU index ---------------------------------------------------------
//
// The LRU index holds only clean extents, so eviction takes its first entry
// (or the first that passes the predicate) without walking dirty ones. The
// reference is the walk it replaced: every extent in recency order, dirty
// ones skipped.

std::optional<DmtTestPeer::ScannedExtent> ReferenceLruVictim(
    TableScan scan, const std::function<bool(const RemovedExtent&)>& pred) {
  std::sort(scan.begin(), scan.end(), [](const auto& a, const auto& b) {
    return a.lru_seq < b.lru_seq;
  });
  for (const DmtTestPeer::ScannedExtent& e : scan) {
    if (e.dirty) continue;
    if (pred && !pred(RemovedExtent{e.file, e.begin, e.end, e.cache_offset,
                                    false})) {
      continue;
    }
    return e;
  }
  return std::nullopt;
}

// Each extent's LRU sequence number by (file, begin).
std::map<std::pair<FileIndex, byte_count>, std::uint64_t> Recency(
    const TableScan& scan) {
  std::map<std::pair<FileIndex, byte_count>, std::uint64_t> out;
  for (const DmtTestPeer::ScannedExtent& e : scan) {
    out[{e.file, e.begin}] = e.lru_seq;
  }
  return out;
}

TEST(Dmt, CleanLruIndexMatchesFullWalkUnderChurn) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    DataMappingTable dmt;
    constexpr byte_count kSpan = 8 * 1024;  // per-file offset range
    Rng rng(seed);
    byte_count next_cache = 0;
    std::int64_t evictions = 0;
    std::int64_t past_dirty = 0;  // victims younger than some dirty extent
    for (int step = 0; step < 6000; ++step) {
      const auto file = static_cast<FileIndex>(rng.NextBelow(3));
      const byte_count offset = rng.NextInRange(0, kSpan - 1);
      const byte_count size = rng.NextInRange(1, 256);
      // Dirty flips, cleans and invalidations leave recency alone: every
      // extent that keeps its begin keeps its sequence number (a split's
      // right half is a new begin and the newest).
      const auto recency_before = Recency(DmtTestPeer::Scan(dmt));
      bool keeps_recency = true;
      switch (rng.NextBelow(9)) {
        case 0:
        case 1: {  // admission: map the gaps of a range
          const bool dirty = rng.NextBool(0.5);
          for (const auto& [gap_begin, gap_end] :
               dmt.Lookup(file, offset, size).gaps) {
            dmt.Insert(file, gap_begin, gap_end - gap_begin, next_cache,
                       dirty);
            next_cache += gap_end - gap_begin;
          }
          break;
        }
        case 2:  // write hit: splits at both ends, dirties the middle
          dmt.SetDirty(file, offset, size, true);
          break;
        case 3: {  // flush completion cleans one dirty extent
          const std::vector<DirtyRange> dirty = DirtySnapshot(dmt);
          if (dirty.empty()) break;
          const DirtyRange& d = dirty[rng.NextBelow(dirty.size())];
          ASSERT_TRUE(dmt.MarkCleanIfVersion(d.file, d.orig_begin, d.orig_end,
                                             d.version));
          break;
        }
        case 4:
          dmt.SetDirty(file, offset, size, false);
          break;
        case 5:
          dmt.Touch(file, offset, size);
          keeps_recency = false;
          break;
        case 6:  // non-admitted write: splits, removes the middle
          (void)dmt.Invalidate(file, offset, size);
          break;
        default: {
          keeps_recency = false;
          const TableScan scan = DmtTestPeer::Scan(dmt);
          std::function<bool(const RemovedExtent&)> pred;
          if (rng.NextBool(0.5)) {
            const byte_count parity = rng.NextInRange(0, 1);
            pred = [parity](const RemovedExtent& e) {
              return e.orig_begin % 2 == parity;
            };
          }
          const auto want = ReferenceLruVictim(scan, pred);
          const auto got =
              pred ? dmt.EvictLruCleanIf(pred) : dmt.EvictLruClean();
          ASSERT_EQ(got.has_value(), want.has_value())
              << "seed " << seed << " step " << step;
          if (!got) break;
          ASSERT_EQ(got->file, want->file) << "step " << step;
          ASSERT_EQ(got->orig_begin, want->begin) << "step " << step;
          ASSERT_EQ(got->orig_end, want->end) << "step " << step;
          ASSERT_EQ(got->cache_offset, want->cache_offset) << "step " << step;
          ++evictions;
          if (std::any_of(scan.begin(), scan.end(), [&](const auto& e) {
                return e.dirty && e.lru_seq < want->lru_seq;
              })) {
            ++past_dirty;
          }
        }
      }
      if (step % 16 == 15) dmt.AuditInvariants();
      const TableScan after = DmtTestPeer::Scan(dmt);
      ASSERT_EQ(dmt.entry_count(), after.size());
      if (!keeps_recency) continue;
      for (const DmtTestPeer::ScannedExtent& e : after) {
        const auto before = recency_before.find({e.file, e.begin});
        if (before == recency_before.end()) continue;
        ASSERT_EQ(e.lru_seq, before->second)
            << "seed " << seed << " step " << step << " file " << e.file
            << " extent at " << e.begin;
      }
    }
    EXPECT_GT(evictions, 300) << "seed " << seed;
    EXPECT_GT(past_dirty, 100) << "seed " << seed;
  }
}

// --- reference model -----------------------------------------------------------
//
// The std::map DMT the flat table replaced (table_oracles.h) and the flat
// table run the same seeded mixes of every mutation; after every step both
// must give the same lookups, extents, dirty runs (with a random in-flight
// set), victims, dirty ages and counters.

std::string ExtentsText(const std::vector<RemovedExtent>& extents) {
  std::ostringstream out;
  for (const RemovedExtent& e : extents) {
    out << e.file << "[" << e.orig_begin << "," << e.orig_end << ")@"
        << e.cache_offset << (e.dirty ? "d" : "c") << "\n";
  }
  return out.str();
}

std::string LookupText(const DmtLookup& lookup) {
  std::ostringstream out;
  for (const MappedSegment& seg : lookup.mapped) {
    out << "[" << seg.orig_begin << "," << seg.orig_end << ")@"
        << seg.cache_offset << (seg.dirty ? "d " : "c ");
  }
  out << "|";
  for (const auto& [begin, end] : lookup.gaps) {
    out << " [" << begin << "," << end << ")";
  }
  return out.str();
}

std::string VictimText(const std::optional<RemovedExtent>& victim) {
  return victim ? ExtentsText({*victim}) : "none";
}

bool SameExtents(const std::vector<RemovedExtent>& a,
                 const std::vector<RemovedExtent>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const RemovedExtent& x, const RemovedExtent& y) {
                      return x.file == y.file && x.orig_begin == y.orig_begin &&
                             x.orig_end == y.orig_end &&
                             x.cache_offset == y.cache_offset &&
                             x.dirty == y.dirty;
                    });
}

bool SameRuns(const std::vector<DirtyRun>& a, const std::vector<DirtyRun>& b) {
  return std::equal(
      a.begin(), a.end(), b.begin(), b.end(),
      [](const DirtyRun& x, const DirtyRun& y) {
        return x.file == y.file && x.orig_begin == y.orig_begin &&
               x.orig_end == y.orig_end &&
               std::equal(x.segments.begin(), x.segments.end(),
                          y.segments.begin(), y.segments.end(),
                          [](const DirtyRange& p, const DirtyRange& q) {
                            return p.key() == q.key() &&
                                   p.orig_end == q.orig_end &&
                                   p.cache_offset == q.cache_offset;
                          });
      });
}

TEST(DmtOracle, FlatTableMatchesMapOracleUnderFuzz) {
  constexpr byte_count kSpan = 32 * 1024;  // per-file offset range
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    DataMappingTable dmt;
    MapDmtOracle oracle;
    SimTime now = 0;
    dmt.SetClock([&now] { return now; });
    oracle.SetClock([&now] { return now; });
    Rng rng(seed);
    byte_count next_cache = 0;
    std::vector<DirtyRange> in_flight;
    std::int64_t evictions = 0;
    std::int64_t cleaned = 0;
    std::size_t most_extents = 0;
    for (int step = 0; step < 6000; ++step) {
      now += rng.NextInRange(0, 1000);
      const auto file = static_cast<FileIndex>(rng.NextBelow(3));
      const byte_count offset = rng.NextInRange(0, kSpan - 1);
      const byte_count size = rng.NextBool(0.9) ? rng.NextInRange(1, 64)
                                                : rng.NextInRange(65, 2048);
      switch (rng.NextBelow(12)) {
        case 0:
        case 1:
        case 2: {  // admission: map the gaps of a range
          const bool dirty = rng.NextBool(0.6);
          const DmtLookup lookup = dmt.Lookup(file, offset, size);
          for (const auto& [gap_begin, gap_end] : lookup.gaps) {
            dmt.Insert(file, gap_begin, gap_end - gap_begin, next_cache,
                       dirty);
            oracle.Insert(file, gap_begin, gap_end - gap_begin, next_cache,
                          dirty);
            next_cache += gap_end - gap_begin;
          }
          break;
        }
        case 3:  // write hit: splits at both ends, dirties the middle
          dmt.SetDirty(file, offset, size, true);
          oracle.SetDirty(file, offset, size, true);
          break;
        case 4:
          dmt.SetDirty(file, offset, size, false);
          oracle.SetDirty(file, offset, size, false);
          break;
        case 5:  // non-admitted write: splits, removes the middle
          ASSERT_EQ(ExtentsText(dmt.Invalidate(file, offset, size)),
                    ExtentsText(oracle.Invalidate(file, offset, size)))
              << "seed " << seed << " step " << step;
          break;
        case 6:
          dmt.Touch(file, offset, size);
          oracle.Touch(file, offset, size);
          break;
        case 7: {  // begin flushes of some collected segments
          const auto runs = dmt.CollectDirtyRuns(8 * 1024, 1024);
          for (const DirtyRun& run : runs) {
            for (const DirtyRange& seg : run.segments) {
              if (!rng.NextBool(0.3)) continue;
              dmt.BeginFlush(seg.key());
              oracle.BeginFlush(seg.key());
              in_flight.push_back(seg);
            }
          }
          break;
        }
        case 8: {  // a flush ends: written back, or aborted
          if (in_flight.empty()) break;
          const std::size_t pick = rng.NextBelow(in_flight.size());
          const DirtyRange seg = in_flight[pick];
          in_flight.erase(in_flight.begin() +
                          static_cast<std::ptrdiff_t>(pick));
          if (rng.NextBool(0.7)) {
            const bool got = dmt.MarkCleanIfVersion(
                seg.file, seg.orig_begin, seg.orig_end, seg.version);
            ASSERT_EQ(got,
                      oracle.MarkCleanIfVersion(seg.file, seg.orig_begin,
                                                seg.orig_end, seg.version))
                << "seed " << seed << " step " << step;
            if (got) ++cleaned;
          } else {
            dmt.EndFlush(seg.key());
            oracle.EndFlush(seg.key());
          }
          break;
        }
        case 9:
          ASSERT_EQ(VictimText(dmt.EvictLruClean()),
                    VictimText(oracle.EvictLruClean()))
              << "seed " << seed << " step " << step;
          ++evictions;
          break;
        case 10: {  // a tenant partition: every other 4 KiB of cache
          const byte_count parity = rng.NextInRange(0, 1);
          const auto pred = [parity](const RemovedExtent& e) {
            return (e.cache_offset / 4096) % 2 == parity;
          };
          ASSERT_EQ(VictimText(dmt.EvictLruCleanIf(pred)),
                    VictimText(oracle.EvictLruCleanIf(pred)))
              << "seed " << seed << " step " << step;
          ++evictions;
          break;
        }
        default: {  // whole-extent write hits on a dirty run's segments
          const auto runs = dmt.CollectDirtyRuns(4 * 1024, 512);
          if (runs.empty()) break;
          const DirtyRange& seg = runs[rng.NextBelow(runs.size())].segments[0];
          dmt.SetDirty(seg.file, seg.orig_begin, seg.orig_end - seg.orig_begin,
                       true);
          oracle.SetDirty(seg.file, seg.orig_begin,
                          seg.orig_end - seg.orig_begin, true);
        }
      }
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      ASSERT_EQ(dmt.entry_count(), oracle.entry_count()) << where;
      ASSERT_EQ(dmt.mapped_bytes(), oracle.mapped_bytes()) << where;
      ASSERT_EQ(dmt.dirty_bytes(), oracle.dirty_bytes()) << where;
      ASSERT_EQ(dmt.coverage_epoch(), oracle.coverage_epoch()) << where;
      const auto all = dmt.AllExtents();
      const auto want_all = oracle.AllExtents();
      ASSERT_TRUE(SameExtents(all, want_all))
          << where << "\n" << ExtentsText(all) << "vs\n"
          << ExtentsText(want_all);
      const auto q_file = static_cast<FileIndex>(rng.NextBelow(4));
      const byte_count q_offset = rng.NextInRange(0, kSpan);
      const byte_count q_size = rng.NextInRange(1, 4096);
      ASSERT_EQ(LookupText(dmt.Lookup(q_file, q_offset, q_size)),
                LookupText(oracle.Lookup(q_file, q_offset, q_size)))
          << where;
      const byte_count budget = rng.NextInRange(1, 16 * 1024);
      const byte_count run_cap = rng.NextInRange(1, 2048);
      const auto runs = dmt.CollectDirtyRuns(budget, run_cap);
      const auto want_runs = oracle.CollectDirtyRuns(budget, run_cap);
      ASSERT_TRUE(SameRuns(runs, want_runs))
          << where << "\n" << RunsText(runs) << "vs\n" << RunsText(want_runs);
      const auto ages = dmt.SummarizeDirtyAges(now);
      const auto want = oracle.SummarizeDirtyAges(now);
      ASSERT_EQ(ages.dirty_extents, want.dirty_extents) << where;
      ASSERT_EQ(ages.oldest, want.oldest) << where;
      ASSERT_EQ(ages.mean, want.mean) << where;
      ASSERT_EQ(ages.p50, want.p50) << where;
      if (step % 16 == 15) dmt.AuditInvariants();
      most_extents = std::max(most_extents, dmt.entry_count());
    }
    dmt.AuditInvariants();
    EXPECT_GT(most_extents, 500u) << "seed " << seed;
    EXPECT_GT(evictions, 500) << "seed " << seed;
    EXPECT_GT(cleaned, 100) << "seed " << seed;
  }
}

}  // namespace
}  // namespace s4d::core
