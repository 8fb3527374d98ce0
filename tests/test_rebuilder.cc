#include "core/rebuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/s4d_cache.h"
#include "dmt_test_peer.h"
#include "harness/driver.h"
#include "harness/testbed.h"

namespace s4d::core {
namespace {

// In (file, begin, version) order.
std::vector<DirtyExtentKey> Sorted(std::vector<DirtyExtentKey> keys) {
  std::sort(keys.begin(), keys.end(), [](const auto& a, const auto& b) {
    return std::tie(a.file, a.begin, a.version) <
           std::tie(b.file, b.begin, b.version);
  });
  return keys;
}

// The DMT's flush marks, sorted.
std::vector<DirtyExtentKey> FlushMarks(const DataMappingTable& dmt) {
  return Sorted(DmtTestPeer::FlushMarks(dmt));
}

harness::TestbedConfig SmallTestbed() {
  harness::TestbedConfig cfg;
  cfg.track_content = true;
  cfg.file_reservation = 1 * GiB;
  return cfg;
}

S4DConfig ManualRebuilder() {
  S4DConfig cfg;
  cfg.cache_capacity = 64 * MiB;
  cfg.enable_rebuilder = false;  // ticks driven manually by the tests
  return cfg;
}

SimTime DoIo(harness::Testbed& bed, mpiio::IoDispatch& dispatch,
             device::IoKind kind, const std::string& file, int rank,
             byte_count offset, byte_count size, std::uint64_t token = 0) {
  SimTime completed = -1;
  mpiio::FileRequest req{file, rank, offset, size, token};
  if (kind == device::IoKind::kWrite) {
    dispatch.Write(req, [&](SimTime t) { completed = t; });
  } else {
    dispatch.Read(req, [&](SimTime t) { completed = t; });
  }
  // Step (not Run): a periodically-rescheduling Rebuilder never drains the
  // event queue, so run only until this request completes.
  while (completed < 0 && bed.engine().Step()) {
  }
  EXPECT_GE(completed, 0);
  return completed;
}

TEST(Rebuilder, FlushWritesDirtyDataBackAndCleans) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB, 9);
  ASSERT_EQ(s4d->dmt().dirty_bytes(), 16 * KiB);

  s4d->rebuilder().Tick();
  bed.engine().Run();

  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
  EXPECT_EQ(s4d->dmt().mapped_bytes(), 16 * KiB) << "mapping stays (clean)";
  EXPECT_EQ(s4d->rebuilder_stats().flushes_cleaned, 1);
  // The flush wrote through to DServers with background priority.
  EXPECT_GT(bed.dservers().TotalServerStats().background_requests, 0);
  // The original file now holds the data.
  const pfs::FileId orig = bed.dservers().Lookup("f");
  const auto content = bed.dservers().ReadContent(orig, 200 * MiB, 16 * KiB);
  ASSERT_EQ(content.size(), 1u);
  EXPECT_EQ(content[0].value, 9u);
}

TEST(Rebuilder, FlushedCleanDataBecomesEvictable) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = ManualRebuilder();
  cfg.cache_capacity = 32 * KiB;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  const FileIndex f = s4d->files().Intern("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 100 * MiB, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB);
  // Cache full of dirty data: next admission fails.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB);
  ASSERT_GT(s4d->redirector_stats().admission_failures, 0);

  s4d->rebuilder().Tick();
  bed.engine().Run();
  ASSERT_EQ(s4d->dmt().dirty_bytes(), 0);

  // Now the same write is admitted by evicting clean LRU space.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 400 * MiB, 16 * KiB);
  EXPECT_GT(s4d->redirector_stats().evictions, 0);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 400 * MiB, 16 * KiB).fully_mapped());
}

TEST(Rebuilder, LazyFetchCachesCriticalReadData) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());
  s4d->Open("f");
  const FileIndex f = s4d->files().Intern("f");
  // Seed the original file's content via a large sequential (non-critical)
  // write that lands on DServers. 12 MiB so that a read near the start is
  // far outside the servers' cache reach (readahead window x M = 4 MiB
  // behind the write's stream tail).
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 12 * MiB, 5);

  // A random small read: miss, served by DServers, marked for lazy fetch.
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 2 * MiB, 16 * KiB);
  EXPECT_EQ(s4d->redirector_stats().lazy_fetch_marks, 1);
  EXPECT_TRUE(s4d->cdt().AnyPendingFetch());
  EXPECT_EQ(s4d->dmt().entry_count(), 0u);

  s4d->rebuilder().Tick();
  bed.engine().Run();

  EXPECT_FALSE(s4d->cdt().AnyPendingFetch());
  EXPECT_EQ(s4d->rebuilder_stats().fetches_completed, 1);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 2 * MiB, 16 * KiB).fully_mapped());
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0) << "fetched data is clean";

  // An immediate re-read lands right behind its own fresh stream tail, so
  // the identifier scores it non-critical and the clean-hit bypass serves
  // it from DServers (both copies are identical). The mapping survives for
  // genuinely random future accesses, and the content is correct.
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 2 * MiB, 16 * KiB);
  EXPECT_EQ(s4d->redirector_stats().read_clean_bypasses, 1);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 2 * MiB, 16 * KiB).fully_mapped());
  const auto content = s4d->ReadContent("f", 2 * MiB, 16 * KiB);
  ASSERT_EQ(content.size(), 1u);
  EXPECT_EQ(content[0].value, 5u);

  // Once the nearby stream tail has been evicted from the identifier's
  // bounded table (512 newer streams), an access to the fetched range is
  // critical again and hits the CServer copy. (The warm-read benefit at
  // scale is exercised by Integration.SecondRunReadsBenefitFromWarmCache.)
  for (int i = 0; i < 520; ++i) {
    // Scattered reads on the same file, 16 MiB apart (beyond the 4 MiB
    // stream reach), open 520 distinct streams in the per-file tail table
    // and evict the tail near 2 MiB.
    DoIo(bed, *s4d, device::IoKind::kRead, "f", 5,
         16 * MiB + static_cast<byte_count>(i) * 16 * MiB, 4 * KiB);
  }
  const auto d_before = bed.dservers().stats().requests;
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 4, 2 * MiB, 16 * KiB);
  EXPECT_EQ(s4d->redirector_stats().read_cache_hits, 1);
  EXPECT_EQ(bed.dservers().stats().requests, d_before);
}

TEST(Rebuilder, DefaultFetchNeverEvictsEstablishedMappings) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = ManualRebuilder();
  cfg.cache_capacity = 16 * KiB;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  const FileIndex f = s4d->files().Intern("f");
  // Fill the cache, flush it clean, then mark a fetch: the default policy
  // must leave the clean mapping alone; the mark is consumed.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 100 * MiB, 16 * KiB);
  s4d->rebuilder().Tick();
  bed.engine().Run();
  ASSERT_EQ(s4d->dmt().dirty_bytes(), 0);
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 500 * MiB, 16 * KiB);
  ASSERT_TRUE(s4d->cdt().AnyPendingFetch());
  s4d->rebuilder().Tick();
  bed.engine().Run();
  EXPECT_FALSE(s4d->cdt().AnyPendingFetch()) << "the mark is consumed";
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, 1);
  EXPECT_EQ(s4d->rebuilder_stats().fetches_completed, 0);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 100 * MiB, 16 * KiB).fully_mapped())
      << "established mapping must survive";
}

TEST(Rebuilder, FetchSkippedWhenNoSpace) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = ManualRebuilder();
  cfg.cache_capacity = 16 * KiB;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  const FileIndex f = s4d->files().Intern("f");
  // Fill the cache with dirty (unevictable) data.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 100 * MiB, 16 * KiB);
  // Mark a critical read for fetching.
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 500 * MiB, 16 * KiB);
  ASSERT_TRUE(s4d->cdt().AnyPendingFetch());

  // The tick's flush is asynchronous and completes after the fetch
  // attempt, which finds no free space.
  s4d->rebuilder().Tick();
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, 1);
  EXPECT_FALSE(s4d->cdt().AnyPendingFetch()) << "the mark is consumed";
  EXPECT_EQ(s4d->rebuilder_stats().fetches_started, 0);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 100 * MiB, 16 * KiB).fully_mapped())
      << "the dirty mapping survives";
}

// --- one attempt per C_flag mark ---------------------------------------------
//
// A fetch pass takes the marks it handles: a mark whose range finds no free
// space (or a vetoing partition gate) is dropped, and the range's next
// critical read miss marks it again. Outside the drain, these tests drive
// Tick() by hand and never run the engine between ticks, so no flush or
// fetch completes behind their back.

constexpr int kPendingFetches = 3;

// A 64 KiB cache holding four clean 16 KiB extents (at 100 MiB + i * 30 MiB)
// and kPendingFetches critical read misses (at 500 MiB + i * 32 MiB) marked
// for lazy fetching.
std::unique_ptr<S4DCache> FullCleanCacheWithPendingFetches(
    harness::Testbed& bed) {
  S4DConfig cfg = ManualRebuilder();
  cfg.cache_capacity = 64 * KiB;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  for (int i = 0; i < 4; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0,
         100 * MiB + static_cast<byte_count>(i) * 30 * MiB, 16 * KiB);
  }
  s4d->rebuilder().Tick();
  bed.engine().Run();
  EXPECT_EQ(s4d->dmt().mapped_bytes(), 64 * KiB);
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
  EXPECT_EQ(s4d->cache_space().free_bytes(), 0);
  for (int i = 0; i < kPendingFetches; ++i) {
    DoIo(bed, *s4d, device::IoKind::kRead, "f", 1,
         500 * MiB + static_cast<byte_count>(i) * 32 * MiB, 16 * KiB);
  }
  EXPECT_EQ(s4d->redirector_stats().lazy_fetch_marks, kPendingFetches);
  return s4d;
}

void Ticks(S4DCache& s4d, int n) {
  for (int i = 0; i < n; ++i) s4d.rebuilder().Tick();
}

TEST(Rebuilder, UnfetchableMarksLetTheDrainEnd) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = FullCleanCacheWithPendingFetches(bed);
  const FileIndex f = s4d->files().Intern("f");
  s4d->rebuilder().Start();
  const SimTime start = bed.engine().now();
  EXPECT_TRUE(harness::DrainUntil(
      bed.engine(), [&] { return s4d->BackgroundQuiescent(); },
      FromSeconds(3600)))
      << "a mark that found no space must not hold the drain";
  EXPECT_LE(bed.engine().now() - start, FromMillis(200));
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, kPendingFetches);
  EXPECT_FALSE(s4d->cdt().AnyPendingFetch());
  EXPECT_EQ(s4d->rebuilder_stats().fetches_started, 0);
  s4d->rebuilder().Stop();

  // Carry the reading stream past the servers' readahead reach, so that
  // a re-read of the first range is random (critical) again, then re-read
  // it: the miss marks the range again.
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 500 * MiB + 16 * KiB,
       8 * MiB);
  ASSERT_EQ(s4d->redirector_stats().lazy_fetch_marks, kPendingFetches);
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 500 * MiB, 16 * KiB);
  ASSERT_EQ(s4d->redirector_stats().lazy_fetch_marks, kPendingFetches + 1);
  EXPECT_TRUE(s4d->cdt().AnyPendingFetch());
  EXPECT_FALSE(s4d->BackgroundQuiescent());

  s4d->rebuilder().Tick();
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, kPendingFetches + 1)
      << "the re-marked range is tried once";
  Ticks(*s4d, 50);
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, kPendingFetches + 1);
  EXPECT_TRUE(s4d->BackgroundQuiescent());
  EXPECT_EQ(s4d->dmt().mapped_bytes(), 64 * KiB);
  EXPECT_TRUE(s4d->dmt().Lookup(f, 500 * MiB, 16 * KiB).fully_unmapped());
}

TEST(Rebuilder, MarksOfMappedRangesAreDropped) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = FullCleanCacheWithPendingFetches(bed);
  const FileIndex f = s4d->files().Intern("f");
  // Map the first pending range whole and half of the second, as foreground
  // admissions racing the lazy fetch would (the synthetic mappings claim no
  // allocator space).
  s4d->dmt().Insert(f, 500 * MiB, 16 * KiB, 0, /*dirty=*/false);
  s4d->dmt().Insert(f, 532 * MiB, 8 * KiB, 0, /*dirty=*/false);
  s4d->rebuilder().Tick();
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, 1)
      << "only the unmapped range asks for space";
  EXPECT_EQ(s4d->rebuilder_stats().fetches_started, 0);
  EXPECT_FALSE(s4d->cdt().AnyPendingFetch()) << "all three marks are taken";
}

TEST(Rebuilder, VetoedMarkIsConsumed) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());  // 64 MiB, nearly all free
  s4d->Open("f");
  for (int i = 0; i < kPendingFetches; ++i) {
    DoIo(bed, *s4d, device::IoKind::kRead, "f", 1,
         500 * MiB + static_cast<byte_count>(i) * 32 * MiB, 16 * KiB);
  }
  ASSERT_EQ(s4d->redirector_stats().lazy_fetch_marks, kPendingFetches);
  // A partition gate that vetoes every free-space allocation: each mark
  // asks it once, and the vetoed mark is dropped like one that found no
  // free space.
  struct VetoingGate final : CacheExtension {
    bool AllowFreeAllocation(byte_count, int) override {
      ++calls;
      return false;
    }
    int calls = 0;
  } gate;
  s4d->Attach(gate);
  Ticks(*s4d, 50);
  EXPECT_EQ(s4d->rebuilder_stats().fetch_space_failures, kPendingFetches);
  EXPECT_EQ(gate.calls, kPendingFetches);
  EXPECT_EQ(s4d->rebuilder_stats().fetches_started, 0);
  EXPECT_FALSE(s4d->cdt().AnyPendingFetch());
}

TEST(Rebuilder, RacingWriteKeepsExtentDirty) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB, 1);

  // Start the flush but do not let it complete...
  s4d->rebuilder().Tick();
  // ...instead, immediately re-dirty the extent with a mapped write-hit.
  mpiio::FileRequest req{"f", 0, 200 * MiB, 16 * KiB, 2};
  bool done = false;
  s4d->Write(req, [&](SimTime) { done = true; });
  bed.engine().Run();
  ASSERT_TRUE(done);

  EXPECT_EQ(s4d->rebuilder_stats().flush_races, 1);
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 16 * KiB)
      << "extent must remain dirty so the new data is flushed later";

  // The next tick flushes the new data; the original file ends with token 2.
  s4d->rebuilder().Tick();
  bed.engine().Run();
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
  const pfs::FileId orig = bed.dservers().Lookup("f");
  const auto content = bed.dservers().ReadContent(orig, 200 * MiB, 16 * KiB);
  ASSERT_EQ(content.size(), 1u);
  EXPECT_EQ(content[0].value, 2u);
}

// The flush pass's runs as a collect-then-skip walk finds them: collect
// every run in the tick's order (a full-table walk), then skip each run
// holding an extent whose flush at its current version is in flight.
std::vector<DirtyRun> ReferenceFlushPass(
    const DataMappingTable& dmt, const RebuilderConfig& config,
    const std::vector<DirtyExtentKey>& busy) {
  std::vector<DirtyRun> runs =
      ReferenceDirtyRuns(DmtTestPeer::Scan(dmt), config.flush_batch_bytes,
                         config.flush_run_bytes);
  std::erase_if(runs, [&](const DirtyRun& run) {
    return std::any_of(
        run.segments.begin(), run.segments.end(), [&](const DirtyRange& seg) {
          return std::find(busy.begin(), busy.end(), seg.key()) != busy.end();
        });
  });
  return runs;
}

// One line per run (its bytes and extent count), then one per extent (its
// cache-file read): what a tick's flush pass issues, in issue order.
std::string IssueText(const std::vector<DirtyRun>& runs) {
  std::ostringstream out;
  for (const DirtyRun& run : runs) {
    out << "run " << run.length() << " bytes, " << run.segments.size()
        << " extents\n";
    for (const DirtyRange& seg : run.segments) {
      out << "  read [" << seg.cache_offset << ", +"
          << seg.orig_end - seg.orig_begin << ")\n";
    }
  }
  return out.str();
}

// Under seeded insert / re-dirty / split / invalidate churn, with flushes
// left in flight for a random number of engine events, every tick issues
// exactly the reference's runs: the same run lengths and extent counts,
// the same cache reads in the same order. Each issued extent's flush mark
// names its (file, begin, version), moving off an older version's mark,
// and each run counts as one more run in flight.
TEST(Rebuilder, FlushPassMatchesCollectThenSkipReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    harness::Testbed bed(SmallTestbed());
    S4DConfig cfg = ManualRebuilder();
    cfg.rebuilder.flush_batch_bytes = 160 * KiB;
    cfg.rebuilder.flush_run_bytes = 48 * KiB;
    cfg.rebuilder.fetch_batch_ranges = 8;
    auto s4d = bed.MakeS4D(cfg);
    obs::Observability obs;
    obs.tracer.set_enabled(true);
    s4d->rebuilder().SetObservability(&obs);
    std::vector<std::pair<byte_count, byte_count>> reads;
    bed.cservers().AddObserver([&](const pfs::RequestRecord& r) {
      if (r.kind == device::IoKind::kRead) reads.emplace_back(r.offset, r.size);
    });

    DataMappingTable& dmt = s4d->dmt();
    const FileIndex files[] = {s4d->files().Intern("a"),
                               s4d->files().Intern("b")};
    Rng rng(seed);
    byte_count next_cache = 0;
    std::int64_t skipped = 0;
    std::int64_t reflushed = 0;
    for (int tick = 0; tick < 400; ++tick) {
      for (std::int64_t m = rng.NextInRange(1, 6); m > 0; --m) {
        const FileIndex file = files[rng.NextBelow(2)];
        const byte_count offset = rng.NextInRange(0, 127) * 4 * KiB;
        const byte_count size = rng.NextInRange(1, 8) * 4 * KiB;
        switch (rng.NextBelow(7)) {
          case 0:
          case 1:
          case 2:  // admission: map the gaps dirty
            for (const auto& [gap_begin, gap_end] :
                 dmt.Lookup(file, offset, size).gaps) {
              dmt.Insert(file, gap_begin, gap_end - gap_begin, next_cache,
                         /*dirty=*/true);
              next_cache += gap_end - gap_begin;
            }
            break;
          case 3:
          case 4:  // write hit: splits, re-dirties with new versions
            dmt.SetDirty(file, offset, size, true);
            break;
          case 5:  // non-admitted write: splits, removes the middle
            (void)dmt.Invalidate(file, offset, size);
            break;
          default:
            dmt.SetDirty(file, offset, size, false);
        }
      }
      const std::vector<DirtyExtentKey> before = FlushMarks(dmt);
      const std::int64_t runs_before = s4d->rebuilder().flush_runs_in_flight();
      const std::vector<DirtyRun> want =
          ReferenceFlushPass(dmt, cfg.rebuilder, before);
      skipped += static_cast<std::int64_t>(
          ReferenceFlushPass(dmt, cfg.rebuilder, {}).size() - want.size());
      std::vector<DirtyExtentKey> want_keys = before;
      for (const DirtyRun& run : want) {
        for (const DirtyRange& seg : run.segments) {
          // An older version's mark on the same extent moves to this one.
          reflushed += std::erase_if(want_keys, [&](const DirtyExtentKey& k) {
            return k.file == seg.file && k.begin == seg.orig_begin;
          });
          want_keys.push_back(seg.key());
        }
      }
      want_keys = Sorted(std::move(want_keys));

      reads.clear();
      const std::size_t first_span = obs.tracer.records().size();
      s4d->rebuilder().Tick();
      std::ostringstream got;
      std::size_t next_read = 0;
      for (std::size_t i = first_span; i < obs.tracer.records().size(); ++i) {
        const obs::SpanRecord& span = obs.tracer.records()[i];
        if (std::string(span.name) != "flush_run") continue;
        ASSERT_EQ(span.args.size(), 2u);
        const int extents = std::stoi(span.args[1].value);
        got << "run " << span.args[0].value << " bytes, " << extents
            << " extents\n";
        for (int e = 0; e < extents && next_read < reads.size(); ++e) {
          const auto& [offset, size] = reads[next_read++];
          got << "  read [" << offset << ", +" << size << ")\n";
        }
      }
      const std::string where =
          "seed " + std::to_string(seed) + " tick " + std::to_string(tick);
      ASSERT_EQ(next_read, reads.size()) << where;
      ASSERT_EQ(got.str(), IssueText(want)) << where;
      ASSERT_TRUE(FlushMarks(dmt) == want_keys) << where;
      ASSERT_EQ(s4d->rebuilder().flush_runs_in_flight(),
                runs_before + static_cast<std::int64_t>(want.size()))
          << where;

      // Let some flushes resolve and leave the rest in flight.
      std::int64_t steps = rng.NextInRange(0, 40);
      while (steps-- > 0 && bed.engine().Step()) {
      }
    }
    EXPECT_GT(skipped, 0) << "seed " << seed;
    EXPECT_GT(reflushed, 0) << "seed " << seed;
  }
}

TEST(Rebuilder, ReDirtiedExtentFlushesAgainWhileOldVersionInFlight) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());
  s4d->Open("f");
  const FileIndex f = s4d->files().Intern("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB, 1);

  s4d->rebuilder().Tick();  // the flush stays in flight: no engine steps
  s4d->rebuilder().Tick();  // same version still in flight: skipped
  EXPECT_EQ(s4d->rebuilder_stats().flush_runs_started, 1);

  s4d->dmt().SetDirty(f, 200 * MiB, 16 * KiB, true);  // new version
  const std::uint64_t version =
      DmtTestPeer::VersionAt(s4d->dmt(), f, 200 * MiB);
  s4d->rebuilder().Tick();
  EXPECT_EQ(s4d->rebuilder_stats().flush_runs_started, 2);
  EXPECT_EQ(s4d->rebuilder().flush_runs_in_flight(), 2);
  EXPECT_FALSE(s4d->rebuilder().idle());
  // The extent's mark moved to the new version.
  const std::vector<DirtyExtentKey> marks = FlushMarks(s4d->dmt());
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_TRUE(marks[0] == (DirtyExtentKey{f, 200 * MiB, version}));

  bed.engine().Run();
  EXPECT_EQ(s4d->rebuilder_stats().flush_races, 1) << "old version";
  EXPECT_EQ(s4d->rebuilder_stats().flushes_cleaned, 1) << "new version";
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
  EXPECT_EQ(s4d->rebuilder().flush_runs_in_flight(), 0);
  EXPECT_TRUE(s4d->rebuilder().idle());
  EXPECT_TRUE(FlushMarks(s4d->dmt()).empty());
}

TEST(Rebuilder, PeriodicTicksRunWhenEnabled) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg;
  cfg.cache_capacity = 64 * MiB;
  cfg.enable_rebuilder = true;
  cfg.rebuilder.interval = FromMillis(10);
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB);
  ASSERT_GT(s4d->dmt().dirty_bytes(), 0);
  // Let simulated time pass; the periodic rebuilder flushes on its own.
  bed.engine().RunUntil(bed.engine().now() + FromMillis(100));
  EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
  EXPECT_GT(s4d->rebuilder_stats().ticks, 1);
  EXPECT_TRUE(s4d->BackgroundQuiescent());
}

TEST(Rebuilder, StopCancelsFutureTicks) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg;
  cfg.cache_capacity = 64 * MiB;
  cfg.enable_rebuilder = true;
  cfg.rebuilder.interval = FromMillis(10);
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  s4d->rebuilder().Stop();
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB);
  bed.engine().RunUntil(bed.engine().now() + FromMillis(100));
  EXPECT_GT(s4d->dmt().dirty_bytes(), 0) << "no ticks after Stop";
}

TEST(Rebuilder, FlushUsesBackgroundPriorityOnly) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(ManualRebuilder());
  s4d->Open("f");
  for (int i = 0; i < 8; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0,
         100 * MiB + static_cast<byte_count>(i) * 30 * MiB, 16 * KiB);
  }
  const auto d_normal_before = bed.dservers().TotalServerStats().requests;
  const auto c_normal_before = bed.cservers().TotalServerStats().requests;
  s4d->rebuilder().Tick();
  bed.engine().Run();
  EXPECT_EQ(bed.dservers().TotalServerStats().requests, d_normal_before);
  EXPECT_EQ(bed.cservers().TotalServerStats().requests, c_normal_before);
  EXPECT_GT(bed.dservers().TotalServerStats().background_requests, 0);
  EXPECT_GT(bed.cservers().TotalServerStats().background_requests, 0);
}

}  // namespace
}  // namespace s4d::core
