#include "core/s4d_cache.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "harness/testbed.h"

namespace s4d::core {
namespace {

harness::TestbedConfig SmallTestbed() {
  harness::TestbedConfig cfg;
  cfg.track_content = true;
  cfg.file_reservation = 1 * GiB;
  return cfg;
}

S4DConfig NoRebuilderConfig() {
  S4DConfig cfg;
  cfg.cache_capacity = 64 * MiB;
  cfg.enable_rebuilder = false;
  return cfg;
}

// Issues a synchronous (run-to-completion) request through the dispatch.
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
  bed.engine().Run();
  EXPECT_GE(completed, 0) << "request never completed";
  return completed;
}

TEST(S4DCache, OpenCreatesCacheFile) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("data.bin");
  EXPECT_NE(bed.dservers().Lookup("data.bin"), pfs::kInvalidFile);
  EXPECT_NE(bed.cservers().Lookup("data.bin.s4d"), pfs::kInvalidFile);
}

TEST(S4DCache, CriticalRandomWriteGoesToCServers) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  // Two distant small writes from the same rank: the second has a huge
  // stream distance -> critical.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 500 * MiB, 16 * KiB);
  EXPECT_GE(s4d->counters().cserver_requests, 1);
  EXPECT_GT(bed.cservers().stats().requests, 0);
  EXPECT_GT(s4d->dmt().mapped_bytes(), 0);
  EXPECT_EQ(s4d->dmt().dirty_bytes(), s4d->dmt().mapped_bytes());
}

TEST(S4DCache, SequentialLargeWritesStayOnDServers) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  byte_count offset = 0;
  for (int i = 0; i < 5; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, offset, 4 * MiB);
    offset += 4 * MiB;
  }
  EXPECT_EQ(s4d->counters().cserver_requests, 0);
  EXPECT_EQ(s4d->counters().dserver_requests, 5);
  EXPECT_EQ(bed.cservers().stats().requests, 0);
}

TEST(S4DCache, ReadYourWriteThroughCache) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB, 42);
  // The redirected write's content must be visible at the original offset.
  const auto content = s4d->ReadContent("f", 300 * MiB, 16 * KiB);
  ASSERT_EQ(content.size(), 1u);
  EXPECT_EQ(content[0].value, 42u);
  EXPECT_EQ(content[0].begin, 300 * MiB);
  EXPECT_EQ(content[0].end, 300 * MiB + 16 * KiB);
}

TEST(S4DCache, SubsequentReadHitsCache) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB);
  const auto d_requests_before = bed.dservers().stats().requests;
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 300 * MiB, 16 * KiB);
  EXPECT_EQ(bed.dservers().stats().requests, d_requests_before)
      << "cache hit must not touch DServers";
  EXPECT_EQ(s4d->redirector_stats().read_cache_hits, 1);
}

TEST(S4DCache, CacheHitFasterThanDServerMiss) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB);
  const SimTime t0 = bed.engine().now();
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 300 * MiB, 16 * KiB);
  const SimTime hit_latency = bed.engine().now() - t0;
  const SimTime t1 = bed.engine().now();
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 700 * MiB, 16 * KiB);
  const SimTime miss_latency = bed.engine().now() - t1;
  EXPECT_LT(hit_latency * 3, miss_latency);
}

TEST(S4DCache, MetadataOverheadDelaysStockPath) {
  harness::TestbedConfig bed_cfg = SmallTestbed();
  harness::Testbed bed(bed_cfg);
  S4DConfig cfg = NoRebuilderConfig();
  cfg.metadata_overhead_per_op = FromMicros(50);
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  // Large sequential write -> pure DServer path, but still pays overhead.
  const SimTime t0 = bed.engine().now();
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 4 * MiB);
  const SimTime s4d_latency = bed.engine().now() - t0;

  harness::Testbed stock_bed(bed_cfg);
  stock_bed.stock().Open("f");
  SimTime completed = -1;
  stock_bed.stock().Write(mpiio::FileRequest{"f", 0, 0, 4 * MiB, 0},
                          [&](SimTime t) { completed = t; });
  stock_bed.engine().Run();
  EXPECT_NEAR(static_cast<double>(s4d_latency),
              static_cast<double>(completed) + 50e3, 1e3);
}

TEST(S4DCache, WriteBurstSerializesOnMetadataLock) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.dmt_update_latency = FromMillis(1);
  cfg.dmt_shards = 1;  // single global metadata lock
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  // 8 concurrent critical writes; each admission persists a DMT record
  // through the serialized path -> >= 8 ms before the last one starts.
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    mpiio::FileRequest req{"f", i, 100 * MiB + i * 200 * MiB / 8, 4 * KiB, 0};
    s4d->Write(req, [&](SimTime) { ++done; });
  }
  bed.engine().Run();
  EXPECT_EQ(done, 8);
  EXPECT_GE(bed.engine().now(), FromMillis(8));
}

TEST(S4DCache, MetadataShardsParallelizeUpdates) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.dmt_update_latency = FromMillis(1);
  cfg.dmt_shards = 8;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  int done = 0;
  // Same burst as WriteBurstSerializesOnMetadataLock, but with 8 shards the
  // (distinct-region) updates proceed mostly in parallel.
  for (int i = 0; i < 8; ++i) {
    mpiio::FileRequest req{"f", i, 100 * MiB + i * 200 * MiB / 8, 4 * KiB, 0};
    s4d->Write(req, [&](SimTime) { ++done; });
  }
  bed.engine().Run();
  EXPECT_EQ(done, 8);
  EXPECT_LT(bed.engine().now(), FromMillis(6));
}

TEST(S4DCache, AdmissionStopsWhenCacheFull) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.cache_capacity = 32 * KiB;  // room for two 16 KiB admissions
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  for (int i = 0; i < 5; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0,
         100 * MiB + static_cast<byte_count>(i) * 50 * MiB, 16 * KiB);
  }
  EXPECT_EQ(s4d->cache_space().used_bytes(), 32 * KiB);
  EXPECT_GT(s4d->redirector_stats().admission_failures, 0);
  // Overflowing requests fell back to DServers.
  EXPECT_GT(s4d->counters().dserver_requests, 0);
}

TEST(S4DCache, PolicyNeverBehavesLikeStockRouting) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.policy = AdmissionPolicy::kNever;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 500 * MiB, 16 * KiB);
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 0, 100 * MiB, 16 * KiB);
  EXPECT_EQ(s4d->counters().cserver_requests, 0);
  EXPECT_EQ(bed.cservers().stats().requests, 0);
}

TEST(S4DCache, PolicyAlwaysAdmitsSequentialWrites) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.policy = AdmissionPolicy::kAlways;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  byte_count offset = 0;
  for (int i = 0; i < 4; ++i) {
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, offset, 64 * KiB);
    offset += 64 * KiB;
  }
  EXPECT_EQ(s4d->counters().cserver_requests, 4);
  EXPECT_EQ(s4d->counters().dserver_requests, 0);
}

// Logs every call it receives, tagged with its name, into a log it shares
// with the other recorders. Its admission stage can replace the verdict it
// receives.
class RecordingExtension final : public CacheExtension {
 public:
  RecordingExtension(std::string name, std::vector<std::string>& log)
      : name_(std::move(name)), log_(log) {}

  int OnRequestStart(const mpiio::FileRequest&, device::IoKind) override {
    log_.push_back(name_ + ".start");
    return -1;
  }
  bool Admit(const AdmissionContext&, bool verdict) override {
    log_.push_back(name_ + ".admit(" + (verdict ? "1" : "0") + ")");
    return invert_verdict ? !verdict : verdict;
  }
  bool AllowFreeAllocation(byte_count, int) override {
    log_.push_back(name_ + ".gate");
    return true;
  }
  std::optional<RemovedExtent> SelectVictim(DataMappingTable& dmt,
                                            int) override {
    log_.push_back(name_ + ".victim");
    return dmt.EvictLruClean();
  }
  void OnOutcome(const RequestOutcome&) override {
    log_.push_back(name_ + ".outcome");
  }
  void AuditInvariants() const override { log_.push_back(name_ + ".audit"); }

  bool invert_verdict = false;

 private:
  std::string name_;
  std::vector<std::string>& log_;
};

TEST(S4DCacheExtensions, StagesRunInAttachOrder) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  std::vector<std::string> log;
  RecordingExtension a("a", log);
  RecordingExtension b("b", log);
  a.invert_verdict = true;
  s4d->Attach(a);
  s4d->Attach(b);
  // A cold small write: the model finds it critical (B > 0).
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 500 * MiB, 16 * KiB);
  // Start stages run before admission; admission folds from the model's
  // verdict through `a` (which inverts it) into `b`.
  EXPECT_EQ(log, (std::vector<std::string>{"a.start", "b.start", "a.admit(1)",
                                           "b.admit(0)", "a.outcome",
                                           "b.outcome"}));
  // The folded verdict is the one the Redirector acted on.
  EXPECT_EQ(s4d->identifier_stats().critical, 0);
  EXPECT_EQ(s4d->counters().cserver_requests, 0);
  log.clear();
  s4d->AuditInvariants();
  EXPECT_EQ(log, (std::vector<std::string>{"a.audit", "b.audit"}));
}

TEST(S4DCacheExtensions, EvictionAsksOnlyTheChosenSelector) {
  harness::Testbed bed(SmallTestbed());
  S4DConfig cfg = NoRebuilderConfig();
  cfg.cache_capacity = 32 * KiB;  // room for two 16 KiB admissions
  cfg.policy = AdmissionPolicy::kAlways;
  auto s4d = bed.MakeS4D(cfg);
  s4d->Open("f");
  std::vector<std::string> log;
  RecordingExtension a("a", log);
  RecordingExtension b("b", log);
  s4d->Attach(a);
  s4d->Attach(b, /*selects_victims=*/true);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 100 * MiB, 16 * KiB, 7);
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 200 * MiB, 16 * KiB, 8);
  // Flush both extents so they are clean and evictable.
  s4d->rebuilder().Tick();
  bed.engine().Run();
  ASSERT_EQ(s4d->dmt().dirty_bytes(), 0);
  log.clear();
  // The cache is full: the third admission evicts one extent.
  DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB, 9);
  EXPECT_EQ(log, (std::vector<std::string>{
                     "a.start", "b.start", "a.admit(1)", "b.admit(1)",
                     "a.gate", "b.gate", "b.victim", "a.gate", "b.gate",
                     "a.outcome", "b.outcome"}));
  EXPECT_EQ(s4d->redirector_stats().evictions, 1);
  s4d->AuditInvariants();
}

// A cache has at most one victim selector: a second one is refused, never
// a silent replacement of the first.
TEST(S4DCacheExtensionsDeathTest, SecondVictimSelectorAborts) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  std::vector<std::string> log;
  RecordingExtension a("a", log);
  RecordingExtension b("b", log);
  s4d->Attach(a, /*selects_victims=*/true);
  EXPECT_DEATH(s4d->Attach(b, /*selects_victims=*/true),
               "second extension asked to select victims");
}

TEST(S4DCacheExtensions, RebuilderFetchesReachTheGate) {
  harness::Testbed bed(SmallTestbed());
  auto s4d = bed.MakeS4D(NoRebuilderConfig());
  s4d->Open("f");
  std::vector<std::string> log;
  RecordingExtension a("a", log);
  RecordingExtension b("b", log);
  s4d->Attach(a);
  s4d->Attach(b);
  // A critical read miss is marked for a lazy background fetch.
  DoIo(bed, *s4d, device::IoKind::kRead, "f", 1, 500 * MiB, 16 * KiB);
  ASSERT_EQ(s4d->redirector_stats().lazy_fetch_marks, 1);
  log.clear();
  s4d->rebuilder().Tick();
  EXPECT_EQ(s4d->rebuilder_stats().fetches_started, 1);
  EXPECT_EQ(log, (std::vector<std::string>{"a.gate", "b.gate"}));
}

TEST(S4DCache, DmtPersistenceAcrossRestart) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_facade_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string db_path = (dir / "dmt.db").string();

  kv::Options kv_options;
  kv_options.sync_writes = false;
  {
    auto store = kv::KvStore::Open(db_path, kv_options);
    ASSERT_TRUE(store.ok());
    harness::Testbed bed(SmallTestbed());
    auto s4d = bed.MakeS4D(NoRebuilderConfig(), store->get());
    s4d->Open("f");
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 0, 16 * KiB);
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB, 7);
    ASSERT_GT(s4d->dmt().entry_count(), 0u);
  }
  {
    // "Restart": fresh testbed + facade recover the mapping from the store.
    auto store = kv::KvStore::Open(db_path, kv_options);
    ASSERT_TRUE(store.ok());
    harness::Testbed bed(SmallTestbed());
    auto s4d = bed.MakeS4D(NoRebuilderConfig(), store->get());
    s4d->Open("f");
    const FileIndex f = s4d->files().Intern("f");
    EXPECT_GT(s4d->dmt().entry_count(), 0u);
    EXPECT_TRUE(s4d->dmt().Lookup(f, 300 * MiB, 16 * KiB).fully_mapped());
    // The recovered mapping routes a read straight to CServers.
    DoIo(bed, *s4d, device::IoKind::kRead, "f", 0, 300 * MiB, 16 * KiB);
    EXPECT_EQ(s4d->redirector_stats().read_cache_hits, 1);
    // Its cache space is re-reserved, not double-allocated.
    EXPECT_EQ(s4d->cache_space().used_bytes(), s4d->dmt().mapped_bytes());
  }
  std::filesystem::remove_all(dir);
}

// A store whose second record is corrupt loads nothing: the first
// record's extent must not stay mapped while its cache range goes
// unreserved (a later admission could be handed the same bytes).
TEST(S4DCache, CorruptDmtStoreStartsEmptyAndConsistent) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_corrupt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string db_path = (dir / "dmt.db").string();
  kv::Options kv_options;
  kv_options.sync_writes = false;
  auto store = kv::KvStore::Open(db_path, kv_options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("D|a|0", "16384 0 1 3").ok());
  ASSERT_TRUE((*store)->Put("D|b|0", "not a record").ok());
  {
    harness::Testbed bed(SmallTestbed());
    auto s4d = bed.MakeS4D(NoRebuilderConfig(), store->get());
    s4d->AuditInvariants(/*expect_quiescent=*/true);
    EXPECT_EQ(s4d->dmt().entry_count(), 0u);
    EXPECT_EQ(s4d->dmt().dirty_bytes(), 0);
    EXPECT_EQ(s4d->cache_space().used_bytes(), 0);
    // Admissions start from an empty cache and stay consistent.
    s4d->Open("f");
    DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0, 300 * MiB, 16 * KiB, 7);
    s4d->AuditInvariants(/*expect_quiescent=*/true);
  }
  std::filesystem::remove_all(dir);
}

TEST(S4DCache, CapacityShrinkDropsUnfittingRecoveredMappings) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("s4d_shrink_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string db_path = (dir / "dmt.db").string();
  kv::Options kv_options;
  kv_options.sync_writes = false;
  {
    auto store = kv::KvStore::Open(db_path, kv_options);
    ASSERT_TRUE(store.ok());
    harness::Testbed bed(SmallTestbed());
    S4DConfig cfg = NoRebuilderConfig();
    cfg.cache_capacity = 1 * MiB;
    auto s4d = bed.MakeS4D(cfg, store->get());
    s4d->Open("f");
    for (int i = 0; i < 4; ++i) {
      DoIo(bed, *s4d, device::IoKind::kWrite, "f", 0,
           100 * MiB + static_cast<byte_count>(i) * 40 * MiB, 256 * KiB);
    }
    ASSERT_EQ(s4d->dmt().entry_count(), 4u);
  }
  {
    auto store = kv::KvStore::Open(db_path, kv_options);
    ASSERT_TRUE(store.ok());
    harness::Testbed bed(SmallTestbed());
    S4DConfig cfg = NoRebuilderConfig();
    cfg.cache_capacity = 512 * KiB;  // shrunk: only 2 of 4 extents fit
    auto s4d = bed.MakeS4D(cfg, store->get());
    EXPECT_EQ(s4d->dmt().entry_count(), 2u);
    EXPECT_LE(s4d->dmt().mapped_bytes(), 512 * KiB);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace s4d::core
