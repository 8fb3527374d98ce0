#include "core/cdt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"

namespace s4d::core {

// Reads and corrupts the table's private bookkeeping.
struct CdtTestPeer {
  // AnyPendingFetch() as it was before the table counted its live flags: a
  // walk over the fetch queue for a key whose entry is still flagged.
  static bool QueueHoldsLiveFlag(const CriticalDataTable& cdt) {
    for (const auto& copy : cdt.flagged_) {
      auto it = cdt.entries_.find(copy.key);
      if (it != cdt.entries_.end() && it->second.queued_seq == copy.seq &&
          it->second.c_flag) {
        return true;
      }
    }
    return false;
  }
  static void MiscountFlags(CriticalDataTable& cdt) { ++cdt.flagged_count_; }
  // Queues the front copy a second time.
  static void QueueFrontTwice(CriticalDataTable& cdt) {
    cdt.flagged_.push_back(cdt.flagged_.front());
  }
};

namespace {

// File ids of two files.
constexpr FileIndex kFile = 0;
constexpr FileIndex kOther = 1;

const CdtKey kA{kFile, 0, 16384};
const CdtKey kB{kFile, 16384, 16384};
const CdtKey kC{kOther, 0, 16384};

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
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 0, 8192}));
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 1, 16384}));
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
    const CdtKey key{kFile, static_cast<byte_count>(i) * 4096, 4096};
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
    cdt.Add(CdtKey{kFile, i * 100, 100});
  }
  EXPECT_EQ(cdt.size(), 3u);
  EXPECT_EQ(cdt.evictions(), 2);
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 0, 100}));
  EXPECT_FALSE(cdt.Contains(CdtKey{kFile, 100, 100}));
  EXPECT_TRUE(cdt.Contains(CdtKey{kFile, 400, 100}));
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

TEST(Cdt, SetClearSetQueuesTheKeyOnce) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kA);
  cdt.SetCacheFlag(kB);
  cdt.ClearCacheFlag(kA);
  cdt.SetCacheFlag(kA, /*owner=*/2);  // the stale copy keeps its place
  cdt.AuditInvariants();
  const auto pending = cdt.PendingFetches(10);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].key, kA);
  EXPECT_EQ(pending[0].owner, 2);
  EXPECT_EQ(pending[1].key, kB);
}

TEST(Cdt, ReaddedKeyIsListedOnce) {
  CriticalDataTable cdt(/*max_entries=*/2);
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.Add(kB);
  cdt.SetCacheFlag(kB);
  cdt.Add(kC);  // evicts kA; its queue copy stays behind
  cdt.Add(kA);  // evicts kB; kA is a new entry
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  const auto pending = cdt.PendingFetches(10);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].key, kA);
  cdt.AuditInvariants();
}

// Drives Add, SetCacheFlag, ClearCacheFlag and PendingFetches against a
// model of the entries (FIFO-bounded) and their flags. Every listing must
// name distinct flagged keys with the owner that flagged them, as many as
// the limit allows; a third of the steps reuse the last key, so a key is
// often flagged, cleared and flagged again between listings.
TEST(Cdt, FuzzedListingsNameEachFlaggedKeyOnce) {
  constexpr std::size_t kMaxEntries = 6;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CriticalDataTable cdt(kMaxEntries);
    std::deque<CdtKey> fifo;
    std::map<std::tuple<FileIndex, byte_count, byte_count>, int> flags;
    std::set<std::tuple<FileIndex, byte_count, byte_count>> live;
    auto tuple_of = [](const CdtKey& k) {
      return std::make_tuple(k.file, k.offset, k.length);
    };
    Rng rng(seed);
    CdtKey last{kFile, 0, 4096};
    for (int step = 0; step < 4000; ++step) {
      CdtKey key = last;
      if (rng.NextBelow(3) != 0) {
        key = CdtKey{static_cast<FileIndex>(rng.NextBelow(2)),
                     static_cast<byte_count>(rng.NextBelow(10)) * 4096, 4096};
      }
      last = key;
      const auto k = tuple_of(key);
      switch (rng.NextBelow(4)) {
        case 0: {
          const bool added = live.count(k) == 0;
          ASSERT_EQ(cdt.Add(key), added) << "step " << step;
          if (added) {
            live.insert(k);
            fifo.push_back(key);
            while (fifo.size() > kMaxEntries) {
              live.erase(tuple_of(fifo.front()));
              flags.erase(tuple_of(fifo.front()));
              fifo.pop_front();
            }
          }
          break;
        }
        case 1: {
          const int owner = static_cast<int>(rng.NextBelow(3)) - 1;
          ASSERT_EQ(cdt.SetCacheFlag(key, owner), live.count(k) > 0)
              << "step " << step;
          if (live.count(k) > 0) flags[k] = owner;
          break;
        }
        case 2:
          cdt.ClearCacheFlag(key);
          flags.erase(k);
          break;
        default: {
          const auto limit = static_cast<std::size_t>(rng.NextBelow(17));
          const auto pending = cdt.PendingFetches(limit);
          std::set<std::tuple<FileIndex, byte_count, byte_count>> listed;
          for (const PendingFetch& p : pending) {
            const auto pk = tuple_of(p.key);
            ASSERT_TRUE(listed.insert(pk).second)
                << "step " << step << ": key " << p.key.file << ":"
                << p.key.offset << " listed twice";
            ASSERT_EQ(flags.count(pk), 1u)
                << "step " << step << ": listed key not flagged";
            EXPECT_EQ(p.owner, flags[pk]) << "step " << step;
          }
          ASSERT_EQ(pending.size(), std::min(limit, flags.size()))
              << "step " << step;
          break;
        }
      }
      ASSERT_EQ(cdt.AnyPendingFetch(), !flags.empty()) << "step " << step;
      ASSERT_EQ(cdt.size(), live.size()) << "step " << step;
      cdt.AuditInvariants();
    }
  }
}

TEST(Cdt, AuditCatchesAKeyQueuedTwice) {
  CriticalDataTable cdt;
  cdt.Add(kA);
  cdt.SetCacheFlag(kA);
  cdt.AuditInvariants();
  CdtTestPeer::QueueFrontTwice(cdt);
  EXPECT_DEATH(cdt.AuditInvariants(), "queued twice");
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
