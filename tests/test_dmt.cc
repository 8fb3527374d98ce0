#include "core/dmt.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dmt_test_peer.h"

namespace s4d::core {
namespace {

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
  const auto result = dmt.Lookup("f", 0, 100);
  EXPECT_TRUE(result.mapped.empty());
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].first, 0);
  EXPECT_EQ(result.gaps[0].second, 100);
  EXPECT_TRUE(result.fully_unmapped());
  EXPECT_FALSE(result.fully_mapped());
}

TEST(Dmt, InsertAndExactLookup) {
  DataMappingTable dmt;
  dmt.Insert("f", 1000, 500, 0, /*dirty=*/true);
  const auto result = dmt.Lookup("f", 1000, 500);
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
  dmt.Insert("f", 1000, 500, 8000, false);
  const auto result = dmt.Lookup("f", 1200, 100);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 8200);
}

TEST(Dmt, PartialOverlapYieldsMappedAndGaps) {
  DataMappingTable dmt;
  dmt.Insert("f", 100, 100, 0, false);
  dmt.Insert("f", 300, 100, 100, false);
  const auto result = dmt.Lookup("f", 0, 500);
  ASSERT_EQ(result.mapped.size(), 2u);
  ASSERT_EQ(result.gaps.size(), 3u);
  EXPECT_EQ(result.gaps[0], (std::pair<byte_count, byte_count>{0, 100}));
  EXPECT_EQ(result.gaps[1], (std::pair<byte_count, byte_count>{200, 300}));
  EXPECT_EQ(result.gaps[2], (std::pair<byte_count, byte_count>{400, 500}));
}

TEST(Dmt, FilesAreIndependent) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, false);
  EXPECT_TRUE(dmt.Lookup("b", 0, 100).fully_unmapped());
}

TEST(Dmt, InvalidateSplitsBoundaries) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 300, 0, true);
  const auto removed = dmt.Invalidate("f", 100, 100);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].orig_begin, 100);
  EXPECT_EQ(removed[0].orig_end, 200);
  EXPECT_EQ(removed[0].cache_offset, 100);
  EXPECT_TRUE(removed[0].dirty);
  // Left and right halves survive with translated cache offsets.
  const auto left = dmt.Lookup("f", 0, 100);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_EQ(left.mapped[0].cache_offset, 0);
  const auto right = dmt.Lookup("f", 200, 100);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_EQ(right.mapped[0].cache_offset, 200);
  EXPECT_TRUE(dmt.Lookup("f", 100, 100).fully_unmapped());
  EXPECT_EQ(dmt.mapped_bytes(), 200);
  EXPECT_EQ(dmt.dirty_bytes(), 200);
}

TEST(Dmt, SetDirtyAndCleanAdjustCounters) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, false);
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  dmt.SetDirty("f", 0, 50, true);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
  dmt.SetDirty("f", 0, 100, true);
  EXPECT_EQ(dmt.dirty_bytes(), 100);
  dmt.SetDirty("f", 25, 50, false);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
}

TEST(Dmt, EvictLruCleanPrefersOldest) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, false);
  dmt.Insert("f", 100, 100, 100, false);
  dmt.Insert("f", 200, 100, 200, false);
  dmt.Touch("f", 0, 100);  // entry 0 becomes most recent
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100) << "second-inserted is now LRU";
  EXPECT_EQ(dmt.entry_count(), 2u);
}

TEST(Dmt, EvictSkipsDirty) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  dmt.Insert("f", 100, 100, 100, false);
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100);
  EXPECT_EQ(dmt.EvictLruClean(), std::nullopt) << "only dirty data remains";
}

TEST(Dmt, CollectDirtyRunsReturnsSnapshotsWithVersions) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 500, true);
  dmt.Insert("f", 200, 100, 600, false);
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
  dmt.Insert("f", 0, 100, 500, true);
  dmt.Insert("f", 100, 100, 900, true);
  dmt.Insert("f", 200, 100, 100, true);
  dmt.Insert("f", 400, 50, 700, true);
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
  dmt.Insert("f", 0, 100, 0, true);
  dmt.Insert("f", 100, 100, 100, false);  // clean: breaks the run
  dmt.Insert("f", 200, 100, 200, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].orig_end, 100);
  EXPECT_EQ(runs[1].orig_begin, 200);
}

TEST(Dmt, CollectDirtyRunsRespectsRunCap) {
  DataMappingTable dmt;
  for (int i = 0; i < 10; ++i) {
    dmt.Insert("f", i * 100, 100, i * 100, true);
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
    dmt.Insert("f", i * 1000, 100, i * 100, true);  // non-adjacent
  }
  const auto runs = dmt.CollectDirtyRuns(350, 1 << 20);
  // Stops once ~350 bytes are collected (4 x 100-byte runs).
  EXPECT_EQ(runs.size(), 4u);
}

TEST(Dmt, CollectDirtyRunsSpansFiles) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, true);
  dmt.Insert("b", 0, 100, 100, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].file, runs[1].file);
}

// A run holding an in-flight extent is not returned, but its bytes still
// count toward the budget: the runs returned are the full collection's
// in-flight-free runs, whatever the in-flight set.
TEST(Dmt, CollectDirtyRunsSkipsInFlightRunButSpendsItsBudget) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, true);      // A
  dmt.Insert("a", 200, 100, 100, true);  // B1, B2, B3: one coalesced run
  dmt.Insert("a", 300, 100, 200, true);
  dmt.Insert("a", 400, 100, 300, true);
  dmt.Insert("b", 0, 100, 400, true);  // C
  const auto all = dmt.CollectDirtyRuns(350, 1 << 20);
  // B straddles the 350-byte budget: it starts at 100 bytes and ends at
  // 400, so the walk stops before file b.
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[1].orig_begin, 200);
  EXPECT_EQ(all[1].orig_end, 500);

  // B2 in flight: B1 and B3 do not flush on their own, and C stays past
  // the budget B still spends.
  const DirtyExtentSet in_flight{all[1].segments[1].key()};
  const auto runs = dmt.CollectDirtyRuns(350, 1 << 20, &in_flight);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].file, "a");
  EXPECT_EQ(runs[0].orig_begin, 0);
  EXPECT_EQ(runs[0].orig_end, 100);
}

TEST(Dmt, ReDirtiedExtentIsCollectedWhileOldVersionIsInFlight) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto first = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(first.size(), 1u);
  const DirtyExtentSet in_flight{first[0].segments[0].key()};
  EXPECT_TRUE(dmt.CollectDirtyRuns(1 << 20, 1 << 20, &in_flight).empty());

  dmt.SetDirty("f", 0, 100, true);  // a write hit: same extent, new version
  const auto again = dmt.CollectDirtyRuns(1 << 20, 1 << 20, &in_flight);
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].orig_begin, 0);
  EXPECT_GT(again[0].segments[0].version, first[0].segments[0].version);
}

TEST(Dmt, MarkCleanIfVersionMatches) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto dirty = DirtySnapshot(dmt);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_TRUE(dmt.MarkCleanIfVersion("f", 0, 100, dirty[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, dirty[0].version))
      << "already clean";
}

TEST(Dmt, MarkCleanFailsAfterRedirtying) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto snapshot = DirtySnapshot(dmt);
  // A write races the in-flight flush and re-dirties the extent.
  dmt.SetDirty("f", 0, 100, true);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, snapshot[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 100) << "racing write's dirtiness preserved";
}

TEST(Dmt, MarkCleanFailsAfterSplit) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto snapshot = DirtySnapshot(dmt);
  (void)dmt.Invalidate("f", 40, 20);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, snapshot[0].version));
}

TEST(Dmt, CoverageEpochMovesOnlyWhenMappedCoverageChanges) {
  DataMappingTable dmt;
  std::uint64_t epoch = dmt.coverage_epoch();
  auto moved = [&] {
    const bool m = dmt.coverage_epoch() != epoch;
    epoch = dmt.coverage_epoch();
    return m;
  };
  dmt.Insert("f", 0, 100, 0, false);
  dmt.Insert("f", 200, 100, 100, true);
  EXPECT_TRUE(moved());
  dmt.SetDirty("f", 20, 10, true);  // splits and dirties
  dmt.SetDirty("f", 0, 100, false);
  dmt.Touch("f", 0, 300);
  EXPECT_FALSE(moved());
  (void)dmt.Invalidate("f", 100, 100);  // nothing mapped there
  EXPECT_FALSE(moved());
  (void)dmt.Invalidate("f", 290, 20);
  EXPECT_TRUE(moved());
  ASSERT_TRUE(dmt.EvictLruClean().has_value());
  EXPECT_TRUE(moved());
  while (dmt.EvictLruClean().has_value()) EXPECT_TRUE(moved());
  EXPECT_FALSE(moved()) << "the failed eviction (only dirty data left)";
  EXPECT_EQ(dmt.mapped_bytes(), dmt.dirty_bytes());
}

TEST(Dmt, AllExtentsEnumeratesEverything) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, true);
  dmt.Insert("b", 50, 25, 100, false);
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
    DataMappingTable dmt(store.get());
    dmt.Insert("data/file1", 0, 16384, 0, true);
    dmt.Insert("data/file1", 32768, 16384, 16384, false);
    dmt.Insert("data/file2", 100, 50, 32768, false);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 3u);
  EXPECT_EQ(recovered.mapped_bytes(), 16384 + 16384 + 50);
  EXPECT_EQ(recovered.dirty_bytes(), 16384);
  const auto result = recovered.Lookup("data/file1", 32768, 16384);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 16384);
  EXPECT_FALSE(result.mapped[0].dirty);
}

TEST_F(DmtPersistenceTest, MutationsArePersisted) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("f", 0, 1000, 0, true);
    (void)dmt.Invalidate("f", 200, 100);  // split + removal
    dmt.SetDirty("f", 0, 200, false);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_TRUE(recovered.Lookup("f", 200, 100).fully_unmapped());
  const auto left = recovered.Lookup("f", 0, 200);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_FALSE(left.mapped[0].dirty);
  const auto right = recovered.Lookup("f", 300, 700);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_TRUE(right.mapped[0].dirty);
  EXPECT_EQ(right.mapped[0].cache_offset, 300);
}

TEST_F(DmtPersistenceTest, EvictionRemovesPersistedRecord) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("f", 0, 100, 0, false);
    ASSERT_TRUE(dmt.EvictLruClean().has_value());
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 0u);
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

std::vector<DirtyRun> ReferenceDirtyRuns(const TableScan& scan,
                                         byte_count max_total_bytes,
                                         byte_count max_run_bytes) {
  std::vector<DirtyRun> runs;
  byte_count total = 0;
  std::size_t i = 0;
  while (i < scan.size() && total < max_total_bytes) {
    const std::string file = scan[i].file;
    DirtyRun run;
    auto emit = [&] {
      if (!run.segments.empty()) {
        total += run.length();
        runs.push_back(std::move(run));
        run = DirtyRun{};
      }
    };
    for (; i < scan.size() && scan[i].file == file; ++i) {
      const DmtTestPeer::ScannedExtent& e = scan[i];
      if (total + run.length() >= max_total_bytes) break;
      if (!e.dirty) {
        emit();
        continue;
      }
      const bool continues = !run.segments.empty() && run.orig_end == e.begin &&
                             run.length() + (e.end - e.begin) <= max_run_bytes;
      if (!continues) emit();
      if (run.segments.empty()) {
        run.file = file;
        run.orig_begin = e.begin;
      }
      run.orig_end = e.end;
      run.segments.push_back(DirtyRange{file, e.begin, e.end, e.cache_offset,
                                        e.version, e.file_index});
    }
    emit();
    while (i < scan.size() && scan[i].file == file) ++i;  // budget spent
  }
  return runs;
}

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
std::vector<DirtyRun> SkipInFlight(std::vector<DirtyRun> runs,
                                   const DirtyExtentSet& in_flight) {
  std::erase_if(runs, [&](const DirtyRun& run) {
    return std::any_of(run.segments.begin(), run.segments.end(),
                       [&](const DirtyRange& seg) {
                         return in_flight.contains(seg.key());
                       });
  });
  return runs;
}

std::string RunsText(const std::vector<DirtyRun>& runs) {
  std::ostringstream out;
  for (const DirtyRun& run : runs) {
    out << run.file << "[" << run.orig_begin << "," << run.orig_end << "):";
    for (const DirtyRange& seg : run.segments) {
      out << " " << seg.file << "#" << seg.file_index << "[" << seg.orig_begin
          << "," << seg.orig_end << ")@" << seg.cache_offset << "v"
          << seg.version;
    }
    out << "\n";
  }
  return out.str();
}

TEST_F(DmtPersistenceTest, DirtyIndexWalksMatchFullScanUnderFuzz) {
  const std::string files[] = {"a", "b", "c"};
  constexpr byte_count kSpan = 16 * 1024;  // per-file offset range
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    std::filesystem::remove(path_);
    auto store = OpenStore();
    Rng rng(seed);
    SimTime now = 0;
    auto dmt = std::make_unique<DataMappingTable>(store.get());
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
      const std::string& file = files[rng.NextBelow(3)];
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
            dmt = std::make_unique<DataMappingTable>(store.get());
            dmt->SetClock([&now] { return now; });
            ASSERT_TRUE(dmt->LoadFromStore().ok());
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
      ASSERT_EQ(RunsText(dmt->CollectDirtyRuns(budget, run_cap)),
                RunsText(want_runs))
          << "seed " << seed << " step " << step;
      // A random in-flight subset: keys kept from earlier checks (their
      // extents may since have been re-dirtied, split or removed) and some
      // of the current dirty extents.
      std::vector<DirtyExtentKey> keys;
      for (const DirtyExtentKey& key : kept_in_flight) {
        if (busy_rng.NextBool(0.5)) keys.push_back(key);
      }
      for (const DmtTestPeer::ScannedExtent& e : scan) {
        if (e.dirty && busy_rng.NextBool(0.2)) {
          keys.push_back({e.file_index, e.begin, e.version});
        }
      }
      kept_in_flight = keys;
      const DirtyExtentSet in_flight(keys.begin(), keys.end());
      const std::vector<DirtyRun> want_free =
          SkipInFlight(want_runs, in_flight);
      busy_runs +=
          static_cast<std::int64_t>(want_runs.size() - want_free.size());
      ASSERT_EQ(RunsText(dmt->CollectDirtyRuns(budget, run_cap, &in_flight)),
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
    DataMappingTable dmt(store.get());
    dmt.Insert("weird|name|with|pipes", 10, 20, 0, true);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_TRUE(recovered.Lookup("weird|name|with|pipes", 10, 20).fully_mapped());
}

}  // namespace
}  // namespace s4d::core
