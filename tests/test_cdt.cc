#include "core/cdt.h"

#include <gtest/gtest.h>

namespace s4d::core {

// Reads and corrupts the table's private bookkeeping.
struct CdtTestPeer {
  // AnyPendingFetch() as it was before the table counted its live flags: a
  // walk over the fetch queue for a key whose entry is still flagged.
  static bool QueueHoldsLiveFlag(const CriticalDataTable& cdt) {
    for (const CdtKey& key : cdt.flagged_) {
      auto it = cdt.entries_.find(key);
      if (it != cdt.entries_.end() && it->second.c_flag) return true;
    }
    return false;
  }
  static void MiscountFlags(CriticalDataTable& cdt) { ++cdt.flagged_count_; }
};

namespace {

const CdtKey kA{"file", 0, 16384};
const CdtKey kB{"file", 16384, 16384};
const CdtKey kC{"other", 0, 16384};

TEST(Cdt, AddAndContains) {
  CriticalDataTable cdt;
  EXPECT_FALSE(cdt.Contains(kA));
  EXPECT_TRUE(cdt.Add(kA));
  EXPECT_TRUE(cdt.Contains(kA));
  EXPECT_FALSE(cdt.Add(kA)) << "duplicate add must be a no-op";
  EXPECT_EQ(cdt.size(), 1u);
}

TEST(Cdt, ExactMatchSemantics) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  EXPECT_FALSE(cdt.Contains(CdtKey{"file", 0, 8192}));
  EXPECT_FALSE(cdt.Contains(CdtKey{"file", 1, 16384}));
  EXPECT_FALSE(cdt.Contains(kC));
}

TEST(Cdt, CacheFlagLifecycle) {
  CriticalDataTable cdt;
  EXPECT_FALSE(cdt.SetCacheFlag(kA)) << "unknown entry cannot be flagged";
  cdt.Add(kA);
  EXPECT_FALSE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  EXPECT_TRUE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.AnyPendingFetch());
  cdt.ClearCacheFlag(kA);
  EXPECT_FALSE(cdt.CacheFlag(kA));
  EXPECT_FALSE(cdt.AnyPendingFetch());
}

TEST(Cdt, PendingFetchesOldestFirstAndLimited) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.Add(kC);
  cdt.SetCacheFlag(kB);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kC);
  auto two = cdt.PendingFetches(2);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].key, kB);
  EXPECT_EQ(two[1].key, kA);
  // Flags are not consumed by listing.
  EXPECT_EQ(cdt.PendingFetches(10).size(), 3u);
}

TEST(Cdt, ReflaggingDoesNotDuplicate) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kA);
  EXPECT_EQ(cdt.PendingFetches(10).size(), 1u);
}

TEST(Cdt, ClearedEntriesPrunedFromPending) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kB);
  cdt.ClearCacheFlag(kA);
  auto pending = cdt.PendingFetches(10);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].key, kB);
}

TEST(Cdt, PendingFetchesCarryFlagOwner) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kA, 3);
  cdt.SetCacheFlag(kB);
  cdt.SetCacheFlag(kA, 5);  // re-flagging retags, keeps the queue position
  const auto pending = cdt.PendingFetches(10);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].key, kA);
  EXPECT_EQ(pending[0].owner, 5);
  EXPECT_EQ(pending[1].key, kB);
  EXPECT_EQ(pending[1].owner, -1);
}

TEST(Cdt, PendingFetchesPrunesStaleKeysInOneCall) {
  // 10,000 marks of which 9,990 are cleared: one call walks the queue once,
  // drops every stale key and returns the survivors in mark order.
  CriticalDataTable cdt;
  constexpr int kKeys = 10000;
  std::vector<CdtKey> live;
  for (int i = 0; i < kKeys; ++i) {
    const CdtKey key{"f", static_cast<byte_count>(i) * 4096, 4096};
    cdt.Add(key);
    cdt.SetCacheFlag(key);
    if (i % 1000 == 999) {
      live.push_back(key);
    } else {
      cdt.ClearCacheFlag(key);
    }
  }
  ASSERT_EQ(live.size(), 10u);
  const auto pending = cdt.PendingFetches(256);
  ASSERT_EQ(pending.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(pending[i].key, live[i]) << "position " << i;
  }
  cdt.AuditInvariants();
  // The stale keys are gone and the live ones stay queued, in order.
  const auto again = cdt.PendingFetches(3);
  ASSERT_EQ(again.size(), 3u);
  EXPECT_EQ(again[2].key, live[2]);
}

TEST(Cdt, MutationEpochMovesOnlyOnChanges) {
  CriticalDataTable cdt;
  std::uint64_t epoch = cdt.mutation_epoch();
  auto moved = [&] {
    const bool m = cdt.mutation_epoch() != epoch;
    epoch = cdt.mutation_epoch();
    return m;
  };
  EXPECT_TRUE(cdt.Add(kA));
  EXPECT_TRUE(moved());
  EXPECT_FALSE(cdt.Add(kA));
  EXPECT_FALSE(moved()) << "duplicate add changes nothing";
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  EXPECT_TRUE(moved());
  EXPECT_FALSE(cdt.SetCacheFlag(kB));
  EXPECT_FALSE(moved()) << "unknown key";
  (void)cdt.PendingFetches(10);
  EXPECT_FALSE(moved()) << "listing consumes nothing";
  cdt.ClearCacheFlag(kA);
  EXPECT_TRUE(moved());
}

TEST(Cdt, FifoEvictionWhenFull) {
  CriticalDataTable cdt(/*max_entries=*/3);
  for (int i = 0; i < 5; ++i) {
    cdt.Add(CdtKey{"f", i * 100, 100});
  }
  EXPECT_EQ(cdt.size(), 3u);
  EXPECT_EQ(cdt.evictions(), 2);
  EXPECT_FALSE(cdt.Contains(CdtKey{"f", 0, 100}));
  EXPECT_FALSE(cdt.Contains(CdtKey{"f", 100, 100}));
  EXPECT_TRUE(cdt.Contains(CdtKey{"f", 400, 100}));
}

TEST(Cdt, EvictedFlaggedEntryDisappearsFromPending) {
  CriticalDataTable cdt(/*max_entries=*/2);
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.Add(kB);
  cdt.Add(kC);  // evicts kA
  EXPECT_FALSE(cdt.Contains(kA));
  EXPECT_TRUE(cdt.PendingFetches(10).empty());
  EXPECT_FALSE(cdt.AnyPendingFetch());
}

TEST(Cdt, LiveFlagCountMatchesQueueWalk) {
  CriticalDataTable cdt(/*max_entries=*/2);
  auto expect_agree = [&](const char* step) {
    EXPECT_EQ(cdt.AnyPendingFetch(), CdtTestPeer::QueueHoldsLiveFlag(cdt))
        << step;
    cdt.AuditInvariants();
  };
  expect_agree("empty");
  cdt.Add(kA);
  cdt.Add(kB);
  expect_agree("added, unflagged");
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  expect_agree("flag A");
  EXPECT_TRUE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.SetCacheFlag(kA, /*owner=*/1));
  expect_agree("re-flag A");
  cdt.ClearCacheFlag(kA);
  expect_agree("clear A");
  EXPECT_FALSE(cdt.AnyPendingFetch());
  cdt.ClearCacheFlag(kA);
  expect_agree("clear A again");
  cdt.ClearCacheFlag(kC);
  expect_agree("clear an unknown key");
  EXPECT_TRUE(cdt.SetCacheFlag(kA));
  EXPECT_TRUE(cdt.SetCacheFlag(kB));
  expect_agree("flag A and B");
  // A is the oldest entry: adding C evicts it, flag and all.
  cdt.Add(kC);
  expect_agree("FIFO-evict flagged A");
  EXPECT_FALSE(cdt.CacheFlag(kA));
  EXPECT_TRUE(cdt.AnyPendingFetch());
  // B is next: evicting it leaves no live flag, only stale queue keys.
  cdt.Add(kA);
  expect_agree("FIFO-evict flagged B");
  EXPECT_FALSE(cdt.AnyPendingFetch());
  EXPECT_TRUE(cdt.SetCacheFlag(kC));
  expect_agree("flag C");
  // Pruning drops the stale keys in front of C and keeps C queued.
  const auto pending = cdt.PendingFetches(8);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].key, kC);
  expect_agree("prune");
  EXPECT_TRUE(cdt.AnyPendingFetch());
  cdt.ClearCacheFlag(kC);
  expect_agree("clear C");
  EXPECT_TRUE(cdt.PendingFetches(8).empty());
  expect_agree("prune to empty");
}

TEST(Cdt, AuditCatchesAMiscountedFlag) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  CdtTestPeer::MiscountFlags(cdt);
  EXPECT_DEATH(cdt.AuditInvariants(), "live C_flags");
}

}  // namespace
}  // namespace s4d::core
