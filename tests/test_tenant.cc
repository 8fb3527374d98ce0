#include "tenant/manager.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/config_parser.h"
#include "common/rng.h"
#include "core/cache_space.h"
#include "harness/driver.h"
#include "harness/testbed.h"
#include "tenant/registry.h"

namespace s4d::tenant {
namespace {

// --- [tenants] config parsing ----------------------------------------------

Result<TenantsConfig> ParseText(const std::string& text,
                                byte_count capacity = 64 * MiB) {
  ConfigParser config;
  EXPECT_TRUE(config.Parse(text).ok());
  return ParseTenantsConfig(config, capacity);
}

TEST(TenantsConfig, EmptySectionYieldsEnforcedDefaults) {
  auto cfg = ParseText("");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->mode, TenantMode::kEnforce);
  EXPECT_TRUE(cfg->specs.empty());
  EXPECT_FALSE(cfg->endurance);
  EXPECT_EQ(cfg->sizer_interval, 0);
}

// A present value that does not parse is an error naming the key, never a
// silent fallback to the default.
struct MalformedKey {
  const char* key;
  const char* value;
  friend void PrintTo(const MalformedKey& bad, std::ostream* os) {
    *os << bad.key << " = " << bad.value;
  }
};

class TenantsConfigMalformed : public ::testing::TestWithParam<MalformedKey> {
};

TEST_P(TenantsConfigMalformed, RejectsNamingTheKey) {
  const MalformedKey& bad = GetParam();
  auto cfg = ParseText(std::string("[tenants]\n") + bad.key + " = " +
                       bad.value + "\n");
  ASSERT_FALSE(cfg.ok()) << bad.key << " = " << bad.value << " parsed";
  EXPECT_EQ(cfg.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cfg.status().message().find(std::string("tenants.") + bad.key),
            std::string::npos)
      << cfg.status().ToString();
  EXPECT_NE(cfg.status().message().find(bad.value), std::string::npos)
      << cfg.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    EveryScalarKey, TenantsConfigMalformed,
    ::testing::Values(MalformedKey{"sizer_interval", "2xs"},
                      MalformedKey{"endurance", "maybe"},
                      MalformedKey{"write_cost_ns_per_byte", "nan"}),
    [](const ::testing::TestParamInfo<MalformedKey>& info) {
      return std::string(info.param.key);
    });

TEST(TenantsConfig, ParsesExplicitTenantSpecs) {
  auto cfg = ParseText(
      "[tenants]\n"
      "mode = observe\n"
      "tenant1 = jobA ranks 0-7 quota 40% floor 10% write_budget 50m\n"
      "tenant2 = jobB ranks 8-15 quota 8m\n"
      "sizer_interval = 10ms\n"
      "endurance = on\n"
      "write_cost_ns_per_byte = 2.5\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->mode, TenantMode::kObserve);
  ASSERT_EQ(cfg->specs.size(), 2u);
  const TenantSpec& a = cfg->specs[0];
  EXPECT_EQ(a.name, "jobA");
  EXPECT_EQ(a.rank_begin, 0);
  EXPECT_EQ(a.rank_end, 7);
  EXPECT_FALSE(a.all_ranks);
  EXPECT_DOUBLE_EQ(a.quota_fraction, 0.4);
  EXPECT_DOUBLE_EQ(a.floor_fraction, 0.1);
  EXPECT_DOUBLE_EQ(a.write_budget_bps, static_cast<double>(50 * MiB));
  EXPECT_EQ(cfg->specs[1].quota_bytes, 8 * MiB);
  EXPECT_TRUE(cfg->endurance);
  EXPECT_EQ(cfg->sizer_interval, FromMillis(10));
  EXPECT_DOUBLE_EQ(cfg->write_cost_ns_per_byte, 2.5);
}

TEST(TenantsConfig, SingleRankAndWildcardRanks) {
  auto cfg = ParseText(
      "[tenants]\n"
      "tenant1 = solo ranks 5\n");
  ASSERT_TRUE(cfg.ok());
  EXPECT_EQ(cfg->specs[0].rank_begin, 5);
  EXPECT_EQ(cfg->specs[0].rank_end, 5);
  auto all = ParseText("[tenants]\ntenant1 = every ranks *\n");
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(all->specs[0].all_ranks);
}

TEST(TenantsConfig, RejectsUnknownSpecToken) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks 0-3 color blue\n").ok());
}

TEST(TenantsConfig, RejectsMissingRanksClause) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a quota 50%\n").ok());
}

TEST(TenantsConfig, RejectsBadRankRange) {
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks 7-3\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\ntenant1 = a ranks x-3\n").ok());
}

TEST(TenantsConfig, RejectsOverlappingRankRanges) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-7\n"
                         "tenant2 = b ranks 4-9\n")
                   .ok());
  // all_ranks overlaps everything.
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks *\n"
                         "tenant2 = b ranks 8-15\n")
                   .ok());
}

TEST(TenantsConfig, RejectsDuplicateTenantNames) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3\n"
                         "tenant2 = a ranks 4-7\n")
                   .ok());
}

TEST(TenantsConfig, RejectsQuotaSumOverCapacity) {
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 60%\n"
                         "tenant2 = b ranks 4-7 quota 50%\n")
                   .ok());
  // Absolute + fractional quotas sum past the capacity.
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 48m\n"
                         "tenant2 = b ranks 4-7 quota 50%\n",
                         64 * MiB)
                   .ok());
}

TEST(TenantsConfig, RejectsFloorAboveQuotaOrCapacity) {
  EXPECT_FALSE(
      ParseText("[tenants]\ntenant1 = a ranks 0-3 quota 10% floor 25%\n").ok());
  EXPECT_FALSE(
      ParseText("[tenants]\ntenant1 = a ranks 0-3 floor 128m\n", 64 * MiB)
          .ok());
}

// Floors that each fit on their own but raise the resolved quotas past the
// capacity are rejected, naming the tenant whose floor does not fit.
TEST(TenantsConfig, RejectsFloorsOverCommittingCapacity) {
  // b's share of the remainder is 10%: its 20% floor raises the quotas to
  // 90% + 20% of the cache.
  auto raised = ParseText("[tenants]\n"
                          "tenant1 = a ranks 0-3 quota 90%\n"
                          "tenant2 = b ranks 4-7 floor 20%\n",
                          4 * MiB);
  ASSERT_FALSE(raised.ok());
  EXPECT_EQ(raised.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(raised.status().message().find(
                "tenant 'b' floor does not fit: the quotas resolve to "
                "4613733 bytes of a 4194304-byte cache"),
            std::string::npos)
      << raised.status().ToString();
  auto floors = ParseText("[tenants]\n"
                          "tenant1 = a ranks 0-3 floor 60%\n"
                          "tenant2 = b ranks 4-7 floor 60%\n",
                          4 * MiB);
  ASSERT_FALSE(floors.ok());
  EXPECT_NE(floors.status().message().find("tenant 'a' floor does not fit"),
            std::string::npos)
      << floors.status().ToString();
  // Floors within their shares still parse.
  EXPECT_TRUE(ParseText("[tenants]\n"
                        "tenant1 = a ranks 0-3 quota 50% floor 25%\n"
                        "tenant2 = b ranks 4-7 floor 25%\n",
                        4 * MiB)
                  .ok());
}

TEST(TenantsConfig, RejectsBadModeAndNegativeKnobs) {
  EXPECT_FALSE(ParseText("[tenants]\nmode = strict\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\nsizer_interval = -1ms\n").ok());
  EXPECT_FALSE(ParseText("[tenants]\nwrite_cost_ns_per_byte = -2\n").ok());
}

// --- TenantRegistry ---------------------------------------------------------

TEST(TenantRegistry, DefaultsToOneCatchAllTenant) {
  TenantRegistry registry((TenantsConfig()));
  EXPECT_EQ(registry.count(), 1);
  EXPECT_EQ(registry.spec(0).name, "all");
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(123), 0);
  EXPECT_EQ(registry.TenantOf(-1), 0);
}

TEST(TenantRegistry, MapsRanksToExplicitTenants) {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-3\n"
                       "tenant2 = b ranks 4-7\n");
  ASSERT_TRUE(cfg.ok());
  TenantRegistry registry(*cfg);
  EXPECT_EQ(registry.count(), 2);
  EXPECT_EQ(registry.TenantOf(0), 0);
  EXPECT_EQ(registry.TenantOf(3), 0);
  EXPECT_EQ(registry.TenantOf(4), 1);
  EXPECT_EQ(registry.TenantOf(7), 1);
  // Unclaimed ranks fall back to tenant 0.
  EXPECT_EQ(registry.TenantOf(8), 0);
}

TEST(TenantRegistry, ResolveQuotasSharesRemainder) {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-3 quota 25%\n"
                       "tenant2 = b ranks 4-7\n");
  ASSERT_TRUE(cfg.ok());
  TenantRegistry registry(*cfg);
  const auto partition = registry.ResolveQuotas(64 * MiB);
  EXPECT_EQ(partition.quota[0], 16 * MiB);
  EXPECT_EQ(partition.quota[1], 48 * MiB);  // the unset tenant absorbs the rest
  EXPECT_EQ(partition.floor[0], 0);

  // A floor larger than the remainder share would pull the quota up to the
  // floor and over-commit the cache, so the config is rejected.
  EXPECT_FALSE(ParseText("[tenants]\n"
                         "tenant1 = a ranks 0-3 quota 90%\n"
                         "tenant2 = b ranks 4-7 floor 20%\n")
                   .ok());
}

// --- CacheSpaceAllocator partition accounting -------------------------------

TEST(PartitionTracking, ChargesAndCreditsTheNamedOwner) {
  core::CacheSpaceAllocator space(1 * MiB);
  const auto pre = space.Allocate(64 * KiB);
  ASSERT_TRUE(pre.has_value());
  space.EnablePartitionTracking(2);
  // Pre-existing allocations land on owner 0.
  EXPECT_EQ(space.used_by(0), 64 * KiB);

  const auto a = space.Allocate(128 * KiB, /*owner=*/1);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(space.used_by(1), 128 * KiB);
  space.Free(*a, 32 * KiB, /*owner=*/1);  // a partial free
  EXPECT_EQ(space.used_by(1), 96 * KiB);
  EXPECT_EQ(space.used_by(0), 64 * KiB);

  // An owner outside [0, owner_count) is charged to the catch-all owner 0.
  const auto c = space.Allocate(16 * KiB, /*owner=*/7);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(space.used_by(0), 80 * KiB);
  space.Free(*c, 16 * KiB, /*owner=*/-1);
  EXPECT_EQ(space.used_by(0), 64 * KiB);
  EXPECT_EQ(space.used_by(0) + space.used_by(1), space.used_bytes());
  space.AuditInvariants();
}

TEST(PartitionTracking, MidRunEnableChargesPreexistingToOwnerZero) {
  // Enabling tracking mid-run (the DMT-recovery path: extents already
  // reserved) must charge every already-allocated byte to owner 0 and keep
  // accounting exact from that point on.
  core::CacheSpaceAllocator space(1 * MiB);
  const auto a = space.Allocate(64 * KiB);
  const auto b = space.Allocate(128 * KiB);
  const auto c = space.Allocate(32 * KiB);
  ASSERT_TRUE(a.has_value() && b.has_value() && c.has_value());
  space.Free(*b, 128 * KiB);  // leave a hole so pre-existing space is
                              // non-contiguous when tracking starts

  space.EnablePartitionTracking(3);
  EXPECT_EQ(space.used_by(0), 96 * KiB);
  EXPECT_EQ(space.used_by(1), 0);
  EXPECT_EQ(space.used_by(2), 0);
  space.AuditInvariants();

  const auto d = space.Allocate(128 * KiB, /*owner=*/2);  // lands in the hole
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(space.used_by(0) + space.used_by(1) + space.used_by(2),
            space.used_bytes());
  // A pre-existing extent records no owner (-1, as a recovered DMT extent
  // does): freeing it credits owner 0.
  space.Free(*a, 64 * KiB, /*owner=*/-1);
  EXPECT_EQ(space.used_by(0), 32 * KiB);
  EXPECT_EQ(space.used_by(2), 128 * KiB);
  space.AuditInvariants();
}

TEST(PartitionTracking, FuzzAuditMatchesShadowModel) {
  // Random allocate / full-free / partial-free sequence under rotating
  // owners, with a shadow model of every live extent and its owner. After
  // every mutation the per-owner counters must match the shadow sums and
  // the audit must pass.
  core::CacheSpaceAllocator space(1 * MiB);
  space.EnablePartitionTracking(3);
  struct Shadow {
    byte_count offset;
    byte_count size;
    int owner;
  };
  std::vector<Shadow> live;
  Rng rng(7);
  for (int step = 0; step < 400; ++step) {
    const auto op = live.empty() ? 0 : rng.NextBelow(3);
    if (op == 0) {
      const int owner = static_cast<int>(rng.NextBelow(3));
      const auto size =
          static_cast<byte_count>(1 + rng.NextBelow(32)) * 4 * KiB;
      const auto got = space.Allocate(size, owner);
      if (got.has_value()) live.push_back({*got, size, owner});
    } else if (op == 1) {
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      space.Free(live[idx].offset, live[idx].size, live[idx].owner);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Partial free of the extent's front half; the owner keeps the tail.
      const auto idx = static_cast<std::size_t>(rng.NextBelow(live.size()));
      Shadow& s = live[idx];
      if (s.size < 8 * KiB) continue;
      const byte_count cut = s.size / 2;
      space.Free(s.offset, cut, s.owner);
      s.offset += cut;
      s.size -= cut;
    }
    byte_count shadow_by[3] = {0, 0, 0};
    byte_count shadow_total = 0;
    for (const Shadow& s : live) {
      shadow_by[s.owner] += s.size;
      shadow_total += s.size;
    }
    for (int o = 0; o < 3; ++o) {
      ASSERT_EQ(space.used_by(o), shadow_by[o])
          << "step " << step << ": owner " << o << " counter drifted";
    }
    ASSERT_EQ(space.used_bytes(), shadow_total);
    space.AuditInvariants();
  }
}

TEST(PartitionTracking, OffByDefault) {
  core::CacheSpaceAllocator space(1 * MiB);
  const auto a = space.Allocate(64 * KiB, /*owner=*/1);
  ASSERT_TRUE(a.has_value());
  EXPECT_FALSE(space.partition_tracking());
  EXPECT_EQ(space.used_by(0), 0);
  EXPECT_EQ(space.used_by(1), 0);
  space.AuditInvariants();
}

// --- TenantManager integration ----------------------------------------------

harness::TestbedConfig SmallTestbed() {
  harness::TestbedConfig cfg;
  cfg.file_reservation = 2 * GiB;
  return cfg;
}

core::S4DConfig TightCache() {
  core::S4DConfig cfg;
  cfg.cache_capacity = 2 * MiB;  // small enough that evictions happen
  cfg.enable_rebuilder = false;
  return cfg;
}

void DoIo(harness::Testbed& bed, mpiio::IoDispatch& dispatch,
          device::IoKind kind, const std::string& file, int rank,
          byte_count offset, byte_count size) {
  SimTime completed = -1;
  mpiio::FileRequest req{file, rank, offset, size, 0};
  if (kind == device::IoKind::kWrite) {
    dispatch.Write(req, [&](SimTime t) { completed = t; });
  } else {
    dispatch.Read(req, [&](SimTime t) { completed = t; });
  }
  // Step (rather than Run) so periodic background events — rebuilder
  // ticks, the partition sizer — cannot keep the loop alive forever.
  while (completed < 0 && bed.engine().Step()) {
  }
  ASSERT_GE(completed, 0) << "request never completed";
}

// A deterministic mixed workload: interleaved distant small writes (cache
// candidates), sequential large writes (DServer traffic) and re-reads.
void DriveMixedWorkload(harness::Testbed& bed, core::S4DCache& s4d,
                        std::uint64_t seed, int requests) {
  Rng rng(seed);
  byte_count seq_offset = 0;
  for (int i = 0; i < requests; ++i) {
    switch (rng.NextBelow(4)) {
      case 0: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 0, offset, 64 * KiB);
        break;
      }
      case 1:
        DoIo(bed, s4d, device::IoKind::kWrite, "data", 1, seq_offset, 1 * MiB);
        seq_offset += 1 * MiB;
        break;
      case 2: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 2, offset, 64 * KiB);
        break;
      }
      default: {
        const auto offset =
            static_cast<byte_count>(rng.NextBelow(64)) * 64 * KiB;
        DoIo(bed, s4d, device::IoKind::kRead, "data", 3, offset, 64 * KiB);
        break;
      }
    }
  }
}

TenantsConfig TwoTenantsByRank() {
  auto cfg = ParseText("[tenants]\n"
                       "tenant1 = a ranks 0-1\n"
                       "tenant2 = b ranks 2-3\n");
  EXPECT_TRUE(cfg.ok());
  return *cfg;
}

TEST(TenantManager, AttributesRequestsAndPartitionsSumToUsed) {
  harness::Testbed bed(SmallTestbed());
  auto cache = bed.MakeS4D(TightCache());
  TenantManager manager(bed.engine(), TenantRegistry(TwoTenantsByRank()));
  manager.Attach(*cache);
  cache->Open("data");

  DoIo(bed, *cache, device::IoKind::kWrite, "data", 0, 100 * MiB, 64 * KiB);
  DoIo(bed, *cache, device::IoKind::kWrite, "data", 2, 200 * MiB, 64 * KiB);
  DoIo(bed, *cache, device::IoKind::kRead, "data", 3, 200 * MiB, 64 * KiB);

  EXPECT_EQ(manager.stats(0).requests, 1);
  EXPECT_EQ(manager.stats(1).requests, 2);
  EXPECT_EQ(manager.stats(1).read_requests, 1);
  // The re-read of tenant b's own cached write is a useful (reuse) hit.
  EXPECT_EQ(manager.stats(1).useful_hits, 1);
  // Every cached byte is charged to exactly one tenant.
  const core::CacheSpaceAllocator& space = cache->cache_space();
  EXPECT_GT(space.used_bytes(), 0);
  EXPECT_EQ(space.used_by(0) + space.used_by(1), space.used_bytes());
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// The tentpole guarantee: in enforce mode a tenant at or under its floor
// cannot be evicted by a noisy neighbor, and its working set keeps hitting.
TEST(TenantManager, EnforceProtectsVictimFromNoisyNeighbor) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;  // flushes make extents clean => evictable
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "tenant1 = victim ranks 0-1 quota 50% floor 50%\n"
                       "tenant2 = noisy ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  // Victim lays down a working set inside its floor (distant 64 KiB writes
  // are cache candidates under the cost model).
  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  auto settle = [&] {
    harness::DrainUntil(bed.engine(),
                        [&] { return cache->BackgroundQuiescent(); },
                        FromSeconds(60));
  };
  settle();
  const byte_count victim_used = cache->cache_space().used_by(0);
  ASSERT_GT(victim_used, 0) << "victim admitted nothing";
  ASSERT_LE(victim_used, manager.floor(0));

  // The noisy neighbor floods far more than the whole cache.
  for (int i = 0; i < 64; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 11 * i) * MiB, 64 * KiB);
    if (i % 8 == 7) settle();  // let flushes produce clean victims
  }
  settle();

  // The victim's partition was never raided...
  EXPECT_EQ(cache->cache_space().used_by(0), victim_used);
  // ...so its re-reads still hit the cache.
  const std::int64_t hits_before = manager.stats(0).hits;
  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kRead, "data", 1,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  EXPECT_GT(manager.stats(0).hits, hits_before);
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// Contrast: observe mode accounts but does not constrain eviction, so the
// same flood raids the victim's extents (global clean-LRU).
TEST(TenantManager, ObserveModeDoesNotProtectTheVictim) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = observe\n"
                       "tenant1 = victim ranks 0-1 quota 50% floor 50%\n"
                       "tenant2 = noisy ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  for (int i = 0; i < 12; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 7 * i) * MiB, 64 * KiB);
  }
  auto settle = [&] {
    harness::DrainUntil(bed.engine(),
                        [&] { return cache->BackgroundQuiescent(); },
                        FromSeconds(60));
  };
  settle();
  const byte_count victim_used = cache->cache_space().used_by(0);
  ASSERT_GT(victim_used, 0);

  for (int i = 0; i < 64; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 11 * i) * MiB, 64 * KiB);
    if (i % 8 == 7) settle();
  }
  settle();
  EXPECT_LT(cache->cache_space().used_by(0), victim_used)
      << "global LRU should have evicted some of the victim's extents";
  manager.AuditInvariants();
}

// Endurance-aware admission: a tenant over its write budget stops filling
// the cache, cutting SSD (CServer) write traffic versus the same run
// without the veto.
TEST(TenantManager, EnduranceVetoReducesCacheWrites) {
  // Both runs flush continuously so clean victims keep admissions flowing;
  // only the second run carries the endurance veto.
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;
  s4d_cfg.rebuilder.interval = FromMillis(10);

  std::int64_t base_admissions = 0;
  byte_count base_bytes = 0;
  {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(s4d_cfg);
    cache->Open("data");
    for (int i = 0; i < 150; ++i) {
      DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
           (100 + 9 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
    }
    base_admissions = cache->redirector_stats().write_admissions;
    base_bytes = cache->counters().cserver_bytes;
  }
  ASSERT_GT(base_admissions, 0);

  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "endurance = on\n"
                       "write_cost_ns_per_byte = 5\n"
                       "tenant1 = all ranks * write_budget 1m\n");
  ASSERT_TRUE(cfg.ok());
  std::int64_t veto_admissions = 0;
  byte_count veto_bytes = 0;
  {
    harness::Testbed bed(SmallTestbed());
    auto cache = bed.MakeS4D(s4d_cfg);
    TenantManager manager(bed.engine(), TenantRegistry(*cfg));
    manager.Attach(*cache);
    cache->Open("data");
    for (int i = 0; i < 150; ++i) {
      DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
           (100 + 9 * static_cast<byte_count>(i)) * MiB, 64 * KiB);
    }
    veto_admissions = cache->redirector_stats().write_admissions;
    veto_bytes = cache->counters().cserver_bytes;
    EXPECT_GT(manager.stats(0).endurance_vetoes, 0)
        << "a 1 MiB/s budget must throttle this write stream";
    manager.AuditInvariants();
    cache->AuditInvariants();
  }
  EXPECT_LT(veto_admissions, base_admissions);
  EXPECT_LT(veto_bytes, base_bytes);
}

// The online sizer moves quota toward the tenant with measured reuse.
TEST(TenantManager, SizerShiftsQuotaTowardReuse) {
  harness::Testbed bed(SmallTestbed());
  auto cache = bed.MakeS4D(TightCache());
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "sizer_interval = 5ms\n"
                       "tenant1 = reuser ranks 0-1\n"
                       "tenant2 = scanner ranks 2-3\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");
  const byte_count initial_quota = manager.quota(0);

  // Tenant 0 writes a tiny working set and re-reads it over and over;
  // tenant 1 writes distinct distant extents with zero reuse.
  for (int i = 0; i < 4; ++i) {
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 0,
         (100 + 13 * i) * MiB, 64 * KiB);
  }
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 4; ++i) {
      DoIo(bed, *cache, device::IoKind::kRead, "data", 0,
           (100 + 13 * i) * MiB, 64 * KiB);
    }
    DoIo(bed, *cache, device::IoKind::kWrite, "data", 2,
         (1000 + 17 * static_cast<byte_count>(round)) * MiB, 64 * KiB);
  }

  EXPECT_GT(manager.resizes(), 0) << "the sizer never re-divided capacity";
  EXPECT_GT(manager.useful_ewma(0), manager.useful_ewma(1));
  EXPECT_GT(manager.quota(0), manager.quota(1));
  EXPECT_GT(manager.quota(0), initial_quota);
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// Reclaim order in enforce mode, one victim at a time as the Redirector's
// allocation loop takes them: the partition most over quota first, equal
// excesses by lowest tenant index, then the requester's own partition,
// then any partition above its floor, and nothing below a floor.
TEST(TenantManager, ReclaimOrderPinned) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.cache_capacity = 1 * MiB;  // 16 slots of 64 KiB
  s4d_cfg.policy = core::AdmissionPolicy::kAlways;
  auto cache = bed.MakeS4D(s4d_cfg);
  // Quotas of 2 slots each leave 10 slots of borrowable slack.
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "tenant1 = a ranks 0 quota 128k floor 64k\n"
                       "tenant2 = b ranks 1 quota 128k floor 64k\n"
                       "tenant3 = c ranks 2 quota 128k floor 128k\n",
                       s4d_cfg.cache_capacity);
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  // a and b go 1 slot over quota, c 3 slots over.
  const int slots[] = {3, 3, 5};
  int next = 0;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < slots[t]; ++i, ++next) {
      DoIo(bed, *cache, device::IoKind::kWrite, "data", t,
           (100 + 7 * static_cast<byte_count>(next)) * MiB, 64 * KiB);
    }
  }
  cache->rebuilder().Tick();  // flush: every extent clean, so evictable
  bed.engine().Run();
  ASSERT_EQ(cache->dmt().dirty_bytes(), 0);
  ASSERT_EQ(cache->redirector_stats().evictions, 0);
  core::CacheSpaceAllocator& space = cache->cache_space();
  for (int t = 0; t < 3; ++t) ASSERT_EQ(space.used_by(t), slots[t] * 64 * KiB);

  // Tenant b asks for space until no victim is left.
  std::vector<int> owners;
  while (auto victim = manager.SelectVictim(cache->dmt(), /*owner=*/1)) {
    owners.push_back(victim->owner);
    space.Free(victim->cache_offset, victim->length(), victim->owner);
  }
  // c (excess 3, then 2); a, b, c tied at 1; b's own two slots; a above
  // its floor; c at its floor and a back at its floor keep the rest.
  EXPECT_EQ(owners, (std::vector<int>{2, 2, 0, 1, 2, 1, 1, 0}));
  EXPECT_EQ(space.used_by(0), 64 * KiB);
  EXPECT_EQ(space.used_by(1), 0);
  EXPECT_EQ(space.used_by(2), 128 * KiB);
  manager.AuditInvariants();
  cache->AuditInvariants();
}

// Victim selection scans the partitions' excesses afresh on every eviction.
// Fuzz it: a mixed workload under enforce mode with the sizer re-dividing
// quotas, evicting under partition pressure, and audited (the manager's
// partition bookkeeping and the cache's structures) after every request,
// so a step that breaks an invariant fails where it happens.
TEST(TenantManager, FuzzedEnforceWorkloadPassesAudits) {
  harness::Testbed bed(SmallTestbed());
  core::S4DConfig s4d_cfg = TightCache();
  s4d_cfg.enable_rebuilder = true;  // flushes make clean victims => evictions
  s4d_cfg.rebuilder.interval = FromMillis(10);
  auto cache = bed.MakeS4D(s4d_cfg);
  auto cfg = ParseText("[tenants]\n"
                       "mode = enforce\n"
                       "sizer_interval = 5ms\n"
                       "tenant1 = a ranks 0-1 quota 30%\n"
                       "tenant2 = b ranks 2-3 floor 10%\n");
  ASSERT_TRUE(cfg.ok());
  TenantManager manager(bed.engine(), TenantRegistry(*cfg));
  manager.Attach(*cache);
  cache->Open("data");

  Rng rng(21);
  for (int i = 0; i < 120; ++i) {
    const int rank = static_cast<int>(rng.NextBelow(4));
    const auto offset =
        static_cast<byte_count>(rng.NextBelow(1536)) * 1 * MiB;
    const auto kind =
        rng.NextBelow(3) == 0 ? device::IoKind::kRead : device::IoKind::kWrite;
    DoIo(bed, *cache, kind, "data", rank, offset, 64 * KiB);
    manager.AuditInvariants();
    cache->AuditInvariants();
  }
  EXPECT_GT(manager.resizes(), 0)
      << "the sizer never ran, so the scan never met a re-divided quota";
  EXPECT_GT(cache->redirector_stats().evictions, 0)
      << "nothing was evicted, so the victim scan never ran";
}

// Two enforce-mode tenants, a (rank 0) and b (rank 1), with half of a
// 64 KiB cache each; the Rebuilder ticks only when a test says so.
struct TwoTenantCache {
  explicit TwoTenantCache(core::AdmissionPolicy policy) : bed(SmallTestbed()) {
    core::S4DConfig cfg = TightCache();
    cfg.cache_capacity = 64 * KiB;
    cfg.policy = policy;
    cache = bed.MakeS4D(cfg);
    auto tenants = ParseText("[tenants]\n"
                             "mode = enforce\n"
                             "tenant1 = a ranks 0 quota 50%\n"
                             "tenant2 = b ranks 1\n",
                             cfg.cache_capacity);
    EXPECT_TRUE(tenants.ok());
    manager = std::make_unique<TenantManager>(bed.engine(),
                                              TenantRegistry(*tenants));
    manager->Attach(*cache);
    cache->Open("data");
  }

  void Io(device::IoKind kind, int rank, byte_count offset, byte_count size) {
    DoIo(bed, *cache, kind, "data", rank, offset, size);
  }
  byte_count used(int tenant) const {
    return cache->cache_space().used_by(tenant);
  }
  const core::RebuilderStats& rebuilder() const {
    return cache->rebuilder_stats();
  }
  void Tick() { cache->rebuilder().Tick(); }

  harness::Testbed bed;
  std::unique_ptr<core::S4DCache> cache;
  std::unique_ptr<TenantManager> manager;
};

// An allocation is charged to the tenant whose request caused it, also
// when it happens later or is undone: a lazy fetch issued after another
// tenant's request, a fetch of a range marked again after its first mark
// found no space, a read held across a cache-tier crash and re-planned at
// restore, and a multi-gap write admission that fails partway.
TEST(TenantManager, DeferredAllocationsChargeTheRequestingTenant) {
  constexpr int kA = 0;  // tenant index and rank
  constexpr int kB = 1;
  const auto kRead = device::IoKind::kRead;
  const auto kWrite = device::IoKind::kWrite;
  {
    SCOPED_TRACE("lazy fetch after the other tenant's write");
    TwoTenantCache c(core::AdmissionPolicy::kAlways);
    c.Io(kRead, kB, 500 * MiB, 16 * KiB);  // miss: marked for fetching
    ASSERT_EQ(c.cache->redirector_stats().lazy_fetch_marks, 1);
    c.Io(kWrite, kA, 100 * MiB, 16 * KiB);  // admitted
    ASSERT_EQ(c.used(kA), 16 * KiB);
    c.Tick();  // the fetch takes its space at issue
    ASSERT_EQ(c.rebuilder().fetches_started, 1);
    EXPECT_EQ(c.used(kB), 16 * KiB);
    EXPECT_EQ(c.used(kA), 16 * KiB);
    c.bed.engine().Run();
    EXPECT_EQ(c.rebuilder().fetches_completed, 1);
    c.manager->AuditInvariants();
    c.cache->AuditInvariants(/*expect_quiescent=*/true);
  }
  {
    SCOPED_TRACE("a mark dropped for want of space, freed space, b's re-read");
    TwoTenantCache c(core::AdmissionPolicy::kCostModel);
    // a caches 100 and 130 MiB, b 160 and 190 MiB: the cache is full.
    for (int i = 0; i < 4; ++i) {
      c.Io(kWrite, i < 2 ? kA : kB, (100 + 30 * i) * MiB, 16 * KiB);
    }
    c.Tick();  // flush: every extent clean
    c.bed.engine().Run();
    ASSERT_EQ(c.used(kA), 32 * KiB);
    ASSERT_EQ(c.used(kB), 32 * KiB);
    ASSERT_EQ(c.cache->cache_space().free_bytes(), 0);
    c.Io(kRead, kB, 500 * MiB, 16 * KiB);
    ASSERT_EQ(c.cache->redirector_stats().lazy_fetch_marks, 1);
    c.Tick();
    c.Tick();
    ASSERT_EQ(c.rebuilder().fetch_space_failures, 1) << "one attempt";
    ASSERT_FALSE(c.cache->cdt().AnyPendingFetch()) << "the mark is consumed";
    // a's large sequential write is not admitted: it goes to the DServers
    // and supersedes a's clean extent at 100 MiB, freeing 16 KiB.
    c.Io(kWrite, kA, 100 * MiB, 4 * MiB);
    ASSERT_EQ(c.used(kA), 16 * KiB);
    ASSERT_EQ(c.cache->cache_space().free_bytes(), 16 * KiB);
    c.Tick();
    ASSERT_EQ(c.rebuilder().fetches_started, 0) << "nothing is marked";
    // b's stream moves on past the servers' readahead reach, so its
    // re-read of the first range misses as a random read and marks it.
    c.Io(kRead, kB, 500 * MiB + 16 * KiB, 8 * MiB);
    ASSERT_EQ(c.cache->redirector_stats().lazy_fetch_marks, 1);
    c.Io(kRead, kB, 500 * MiB, 16 * KiB);
    ASSERT_EQ(c.cache->redirector_stats().lazy_fetch_marks, 2);
    c.Tick();
    ASSERT_EQ(c.rebuilder().fetches_started, 1);
    EXPECT_EQ(c.used(kB), 48 * KiB) << "b's re-read marked the fetched range";
    EXPECT_EQ(c.used(kA), 16 * KiB);
    c.bed.engine().Run();
    c.manager->AuditInvariants();
    c.cache->AuditInvariants(/*expect_quiescent=*/true);
  }
  {
    SCOPED_TRACE("read queued across a cache-tier crash");
    TwoTenantCache c(core::AdmissionPolicy::kAlways);
    c.Io(kWrite, kB, 300 * MiB, 16 * KiB);  // dirty in the cache
    pfs::FileSystem& cservers = c.bed.cservers();
    for (int s = 0; s < cservers.server_count(); ++s) cservers.server(s).Crash();
    // b's read overlaps its dirty extent, whose only copy is on the down
    // tier: it is held until the tier comes back.
    bool read_done = false;
    c.cache->Read(mpiio::FileRequest{"data", kB, 300 * MiB, 32 * KiB, 0},
                  [&read_done](SimTime) { read_done = true; });
    ASSERT_EQ(c.cache->counters().queued_degraded_reads, 1);
    c.Io(kWrite, kA, 600 * MiB, 16 * KiB);  // routed to the DServers
    for (int s = 0; s < cservers.server_count(); ++s) {
      cservers.server(s).Restart();
    }
    c.cache->OnCacheTierRestored();  // re-plans b's read: its range is marked
    c.bed.engine().Run();
    ASSERT_TRUE(read_done);
    ASSERT_EQ(c.cache->redirector_stats().lazy_fetch_marks, 1);
    // a's write finds no space (its gate vetoes, nothing is clean), goes to
    // the DServers and supersedes b's extent: the marked range is unmapped.
    c.Io(kWrite, kA, 300 * MiB, 4 * MiB);
    ASSERT_EQ(c.used(kB), 0);
    c.Tick();
    ASSERT_EQ(c.rebuilder().fetches_started, 1);
    EXPECT_EQ(c.used(kB), 32 * KiB) << "b's re-planned read marked the range";
    EXPECT_EQ(c.used(kA), 0);
    c.bed.engine().Run();
    c.manager->AuditInvariants();
    c.cache->AuditInvariants(/*expect_quiescent=*/true);
  }
  {
    SCOPED_TRACE("multi-gap admission failing partway");
    TwoTenantCache c(core::AdmissionPolicy::kAlways);
    // a holds 48 KiB (16 KiB past its quota, borrowed from free space), all
    // dirty, so nothing can be evicted.
    for (int i = 0; i < 3; ++i) {
      c.Io(kWrite, kA, (100 + 100 * i) * MiB, 16 * KiB);
    }
    ASSERT_EQ(c.used(kA), 48 * KiB);
    // b's write spans a 16 KiB gap, a's extent at 100 MiB and a 32 KiB
    // gap: the first gap takes the last free 16 KiB, the second finds no
    // space, and the first is given back.
    c.Io(kWrite, kB, 100 * MiB - 16 * KiB, 64 * KiB);
    ASSERT_EQ(c.cache->redirector_stats().admission_failures, 1);
    EXPECT_EQ(c.used(kB), 0);
    // The write went to the DServers and superseded a's extent.
    EXPECT_EQ(c.used(kA), 32 * KiB);
    EXPECT_EQ(c.cache->cache_space().used_bytes(), 32 * KiB);
    c.manager->AuditInvariants();
    c.cache->AuditInvariants();
  }
}

// Satellite 6 — the byte-equivalence pin: one catch-all tenant in enforce
// mode with endurance off must reproduce the unpartitioned run exactly.
TEST(TenantManager, SingleTenantDefaultIsByteIdenticalToBaseline) {
  harness::Testbed baseline_bed(SmallTestbed());
  auto baseline = baseline_bed.MakeS4D(TightCache());
  baseline->Open("data");
  DriveMixedWorkload(baseline_bed, *baseline, 42, 160);

  harness::Testbed tenant_bed(SmallTestbed());
  auto cache = tenant_bed.MakeS4D(TightCache());
  TenantManager manager(tenant_bed.engine(), TenantRegistry((TenantsConfig())));
  manager.Attach(*cache);
  cache->Open("data");
  DriveMixedWorkload(tenant_bed, *cache, 42, 160);

  EXPECT_EQ(baseline_bed.engine().now(), tenant_bed.engine().now());
  EXPECT_EQ(baseline->counters().dserver_requests,
            cache->counters().dserver_requests);
  EXPECT_EQ(baseline->counters().cserver_requests,
            cache->counters().cserver_requests);
  EXPECT_EQ(baseline->counters().cserver_bytes,
            cache->counters().cserver_bytes);
  EXPECT_EQ(baseline->redirector_stats().write_admissions,
            cache->redirector_stats().write_admissions);
  EXPECT_EQ(baseline->redirector_stats().evictions,
            cache->redirector_stats().evictions);
  EXPECT_EQ(baseline->redirector_stats().read_cache_hits,
            cache->redirector_stats().read_cache_hits);
  EXPECT_EQ(baseline->redirector_stats().admission_failures,
            cache->redirector_stats().admission_failures);
  EXPECT_EQ(baseline->dmt().mapped_bytes(), cache->dmt().mapped_bytes());
  EXPECT_EQ(baseline->dmt().dirty_bytes(), cache->dmt().dirty_bytes());
  // The partition dimension accounted every byte to the one tenant.
  EXPECT_EQ(cache->cache_space().used_by(0),
            cache->cache_space().used_bytes());
  manager.AuditInvariants();
  cache->AuditInvariants();
}

}  // namespace
}  // namespace s4d::tenant
